"""Sensitivity of the protocols to an integrability-detuning error.

Each xi point realizes two coupling sets of the ring, H(+xi) and H(-xi),
detuned from U13 = U0 by +-xi; such an H is H_integrable + (U13 - U0)(N1 N3
+ N2 N4).  Static mode evolves under H(+xi) throughout and models an
uncorrected detuning.  Pulsed mode oscillates between H(+xi) and H(-xi)
N_dt times across each integrable interval (an echo-like mitigation: the
time-averaged Hamiltonian is the integrable one), while protocol timings
t_m and t_mu are computed from the mean couplings.  The brief field pulses
are always taken at the +xi couplings (no alternation within a pulse), and
in Protocol II the alternation restarts with the configured start sign at
the second integrable segment.

The two parameter sources realize opposite signs of xi; a RobustnessConfig
with a trap is the physical source, one without the direct source:

* direct   -- U13 = U0 +- xi, i.e. H(+-xi) = H_integrable +- xi (N1 N3
              + N2 N4); U, J, mu stay fixed, so the mean parameters equal
              the base ones.
* physical -- the lattice at the two radial frequencies where U0(omega) -
              U13(omega) = +-xi; all couplings (and mu, via V0) shift, J is
              an input held fixed, and the timings come from a mean config:
              the arithmetic means of the +- values of U = (U12 - U0)/4, mu
              and nu (U0 only adds a constant to the integrable H).

Every run encodes P theta = P_THETA = pi/2.  Each xi point runs the
protocol runners of `noonring.protocols` on a FullDynamics of its own that
changes only the couplings of the band steps and the pulses; the points
share one NormalModes, from whose record of H's terms
(`noonring.model._ModeTerms`) every H is scaled.  Each operator is built
when a step first runs under it, and dropped with the point's dynamics
before the next point.  The inverted-sign nu pulse runs as the ring
rotation of a mu pulse of strength nu (`FullDynamics.nu_segment`), so at
nu = mu a Protocol II point holds one pulse, the mu pulse's.  H(+-xi) goes
straight into the pieces of the ring rotation's basis
(`noonring.model._RingRotation`), which a state enters when a band step
starts and leaves before the pulse.  A pulsed band interval is one echo
step (`noonring.dynamics._Echo`), built once per point for both of Protocol
II's intervals: it keeps H(+xi)'s eigensystem, H(-xi)'s energies and the
mixing matrix between the two eigenbases, piece by piece, and runs all n_dt
periods in H(+xi)'s eigenbasis.  At xi = 0 H(+0) = H(-0), so the interval
is that one H evolved for the whole t.  A pulse runs once, on one state, so
it is never diagonalized: it is a sparse H that `noonring.dynamics.evolve`
applies by the Chebyshev expansion of exp(-i H t) (Tal-Ezer and Kosloff, J.
Chem. Phys. 81, 3967 (1984)).

The physical source finds the trap's integrable root within the config's
bracket (the CLI's [lattice] frequency range), checks the whole xi grid
against the U0 - U13 its lattice reaches before the first point runs, and
finds each detuned frequency with the lattice's bracketed root-finder.
Only its helpers import `noonring.lattice`, so a direct-source run never
builds the lattice's quadrature rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from .dynamics import NormalModes, _Echo
from .fock import FockBasis
from .model import ModelParameters, _sparse_mode_hamiltonian, build_mode_hamiltonian
from .protocols import FullDynamics, ProtocolConfig, run_protocol1, run_protocol2

if TYPE_CHECKING:   # the physical-source helpers import the lattice when they run
    from .lattice import TrapParameters

P_THETA = math.pi / 2.0   # the encoded phase P theta of every run


@dataclass(frozen=True)
class RobustnessConfig:
    """One fidelity-vs-xi sweep."""

    base: ProtocolConfig
    xi_values: tuple[float, ...]      # rad/s, same units as the couplings
    n_dt: int = 100
    mode: str = "pulsed"              # "pulsed" or "static"
    protocol: int = 1
    start_sign: int = 1
    trap: TrapParameters | None = None   # the physical source's lattice; None: direct
    # rad/s, where the physical source seeks omega*: solve_integrability's (a test pins them equal)
    bracket: tuple[float, float] = (2.0 * math.pi * 20e3, 2.0 * math.pi * 60e3)

    def __post_init__(self):
        if self.n_dt < 1:
            raise ValueError(f"n_dt must be >= 1, got {self.n_dt}")
        if self.mode not in ("pulsed", "static"):
            raise ValueError(f"mode must be 'pulsed' or 'static', got {self.mode!r}")
        if self.protocol not in (1, 2):
            raise ValueError(f"protocol must be 1 or 2, got {self.protocol}")
        if self.start_sign not in (1, -1):
            raise ValueError(f"start_sign must be +1 or -1, got {self.start_sign}")


@dataclass(frozen=True)
class RobustnessPoint:
    """Fidelity at one detuning value."""

    xi: float
    fidelity: float
    probability: float | None  # Protocol I: success probability P(r=0)


class _DetunedSystem(FullDynamics):
    """The protocol dynamics realized at one xi value, on the shared `modes`.

    `couplings` are those of H(+xi), H(-xi), the mu pulse and the mu form of
    the inverted-sign nu pulse (`FullDynamics`), one operator at nu = mu;
    `cfg` holds the mean couplings (timings, ideal states).  Only the
    couplings of the band steps and the pulses differ from FullDynamics, and
    each operator is built when a step first runs under it: a pulse as a
    sparse H, which is never diagonalized, and a pulsed band interval, keyed
    by (first, second, n_dt), as an echo.
    """

    def __init__(self, config: RobustnessConfig, modes: NormalModes, cfg: ProtocolConfig,
                 couplings: tuple[ModelParameters, ...]):
        super().__init__(modes.sites, modes)
        self.config, self.cfg, self.couplings = config, cfg, couplings

    def _build(self, couplings):
        if isinstance(couplings, tuple):   # (first, second, n_dt): a pulsed band interval
            return _Echo(self._build, *couplings)
        if couplings in self.couplings[2:]:
            return _sparse_mode_hamiltonian(couplings, self.modes.terms)
        return build_mode_hamiltonian(couplings, self.modes.terms)

    def _band_steps(self, cfg: ProtocolConfig, t) -> list:
        """Static: H(+xi) throughout.  Pulsed: one echo step of n_dt full oscillations,
        each a +xi and a -xi slice of t / (2 n_dt) (order set by start_sign), so the
        time-averaged Hamiltonian is the unperturbed one; at xi = 0 both slices are
        one H, evolved for the whole t."""
        plus, minus = self.couplings[:2]
        if self.config.mode == "static" or plus == minus:
            return [(plus, t)]
        first, second = (plus, minus) if self.config.start_sign > 0 else (minus, plus)
        return [((first, second, self.config.n_dt), t)]

    def _pulses(self, cfg: ProtocolConfig) -> tuple[ModelParameters, ModelParameters]:
        return self.couplings[2], self.couplings[3]


def _direct_system(config: RobustnessConfig, modes: NormalModes, xi: float) -> _DetunedSystem:
    base, params = config.base, config.base.params
    plus, minus = (replace(params, u13=params.u0 + x) for x in (xi, -xi))
    return _DetunedSystem(config, modes, base, (
        plus, minus, plus.with_fields(mu=base.mu, nu=0.0), plus.with_fields(mu=base.nu, nu=0.0)))


_BRACKET = (0.5, 1.5)   # the detuned radial frequencies lie within these multiples of the root


def _physical_root(config: RobustnessConfig) -> tuple[float, dict[float, float]]:
    """V0 at the integrable root omega* of the trap within config.bracket, and U0 - U13
    at the two ends of _BRACKET x omega*, keyed by omega_r.

    Raises ValueError if the bracket holds no root, or if a xi of the grid needs a
    U0 - U13 of either sign beyond the range reached for omega_r within _BRACKET x omega*.
    """
    from .lattice import integrability_residual, solve_integrability, v0_from_omega_r

    trap, j = config.trap, config.base.j
    try:
        omega_star = solve_integrability(trap, config.bracket)
    except ValueError as exc:   # the CLI sets the bracket from these keys
        raise ValueError(f"physical source, [lattice] omega_min_khz to omega_max_khz: {exc}") from None
    bracket = [factor * omega_star for factor in _BRACKET]
    reach = [integrability_residual(trap, omega_r) for omega_r in bracket]
    for xi in config.xi_values:
        for target in (xi, -xi):
            if (reach[0] - target) * (reach[1] - target) > 0.0:   # no sign change to bracket
                raise ValueError(
                    f"physical source: xi = {abs(target):g} rad/s (xi/J = {abs(target) / j:g}) "
                    f"needs U0 - U13 = {target:+g} rad/s, outside the [{min(reach):g}, "
                    f"{max(reach):g}] rad/s reached for omega_r within [0.5, 1.5] x the "
                    "integrable root")
    return v0_from_omega_r(trap, omega_star), dict(zip(bracket, reach))


def _solve_detuned_omega(trap: TrapParameters, target: float, ends: dict[float, float]) -> float:
    """Radial frequency where U0(omega) - U13(omega) = target, between the `ends` of
    `_physical_root` (which it has checked), whose values the root-finder starts from.

    A fidelity moves by about 1e-7 per 1e-10 relative move of omega (E t ~ 1e6 rad at
    t_m ~ 37 s), so rtol = 1e-10 alone does not fix a table's 12 digits: they hold
    because the root-finder returns its point of smallest residual, which lies within
    ~1e-14 of the root (a test pins 1e-13 on the default grids)."""
    from .lattice import _find_root, integrability_residual

    (lo, f_lo), (hi, f_hi) = ends.items()
    return _find_root(lambda w: integrability_residual(trap, w) - target,
                      lo, hi, f_lo - target, f_hi - target, rtol=1e-10)


def _physical_params(trap: TrapParameters, omega_r: float, j: float) -> tuple[ModelParameters, float]:
    """Full couplings and the mu scale factor, the lattice depth V0, realized at omega_r."""
    from .lattice import derive

    # Not model_parameters_from_lattice: it snaps U0 = U13 near the root, which moves the xi = 0 row.
    derived = derive(trap, omega_r)
    return ModelParameters(u0=derived.u0, u12=derived.u12, u13=derived.u13, j=j), derived.v0


def _physical_system(config: RobustnessConfig, modes: NormalModes,
                     root: tuple[float, dict[float, float]], xi: float) -> _DetunedSystem:
    """The system at xi around the integrable root of the trap (`_physical_root`)."""
    base = config.base
    trap = config.trap
    v0_star, ends = root
    solved = [_physical_params(trap, _solve_detuned_omega(trap, target, ends), base.j)
              for target in dict.fromkeys((xi, -xi))]   # one target at xi = 0: 0.0 == -0.0
    (params_plus, v0_plus), (params_minus, v0_minus) = solved[0], solved[-1]
    mu_plus, mu_minus = base.mu * v0_plus / v0_star, base.mu * v0_minus / v0_star
    nu_plus, nu_minus = base.nu * v0_plus / v0_star, base.nu * v0_minus / v0_star
    # The mean couplings (on the integrable manifold; the +- U0-U13 residuals cancel
    # to root-finder tolerance) fix t_m and t_mu only: the steps run at the +- couplings.
    u_mean = 0.5 * (params_plus.coupling_u() + params_minus.coupling_u())
    mean_cfg = ProtocolConfig(
        base.m_occ, base.p_occ, u=u_mean, j=base.j,
        mu=0.5 * (mu_plus + mu_minus), nu=0.5 * (nu_plus + nu_minus),
        t_m_override=base.t_m_override,
    )
    return _DetunedSystem(config, modes, mean_cfg, (
        params_plus, params_minus, params_plus.with_fields(mu=mu_plus, nu=0.0),
        params_plus.with_fields(mu=nu_plus, nu=0.0)))


def _run_point(system: _DetunedSystem, xi: float) -> RobustnessPoint:
    """Protocol II's fidelity, or Protocol I's r = 0 branch (fidelity and probability 0 if
    r = 0 never occurs), at P theta = P_THETA."""
    cfg = system.cfg
    theta = P_THETA / cfg.p_occ
    if system.config.protocol == 2:
        return RobustnessPoint(xi, run_protocol2(cfg, theta, system).fidelity, None)
    branch = next((report for report in run_protocol1(cfg, theta, system) if report.outcome == 0), None)
    if branch is None:
        return RobustnessPoint(xi, 0.0, 0.0)
    return RobustnessPoint(xi, branch.fidelity, branch.probability)


def run_robustness(config: RobustnessConfig, basis: FockBasis) -> list[RobustnessPoint]:
    """Fidelity (and Protocol I success probability) across the xi grid, one system at a time."""
    modes = NormalModes(basis)
    if config.trap is None:
        build = partial(_direct_system, config, modes)
    else:
        build = partial(_physical_system, config, modes, _physical_root(config))
    return [_run_point(build(xi), xi) for xi in config.xi_values]


def threshold_xi(points: list[RobustnessPoint], level: float = 0.9) -> float | None:
    """Largest |xi| of the grid up to which every point has fidelity above `level`,
    so a revival past the first failing point does not count; None if the smallest
    |xi| fails."""
    threshold = None
    for point in sorted(points, key=lambda point: abs(point.xi)):
        if point.fidelity <= level:
            break
        threshold = abs(point.xi)
    return threshold
