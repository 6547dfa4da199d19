"""Sensitivity of the protocols to an integrability-detuning error.

The error parameter is xi = U0 - U13: the perturbed Hamiltonians are

    H(+xi) = H_integrable + xi (N1 N3 + N2 N4),
    H(-xi) = H_integrable - xi (N1 N3 + N2 N4).

Static mode evolves under H(+xi) throughout and models an uncorrected
detuning.  Pulsed mode oscillates between H(+xi) and H(-xi) N_dt times
across each integrable interval (an echo-like mitigation: the
time-averaged Hamiltonian is the integrable one), while protocol timings
t_m and t_mu are computed from the mean couplings.  The brief field
pulses are always taken at the +xi detuning (no alternation within a
pulse), and in Protocol II the alternation restarts with the configured
start sign at the second integrable segment.

Two parameter sources are supported:

* direct   -- add +-xi (N1 N3 + N2 N4) to the base couplings; U, J, mu
              stay fixed, so the mean parameters equal the base ones.
* physical -- re-solve the lattice for the two radial frequencies where
              U0(omega) - U13(omega) = +-xi; all couplings (and mu, via
              V0) shift accordingly, J is an input held fixed, and the
              timings come from the arithmetic means of the +- values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from scipy import optimize

from .dynamics import evolve, measure_distribution, project
from .fock import FockBasis, QuantumState
from .lattice import (
    TrapParameters,
    derive,
    integrability_residual,
    solve_integrability,
    v0_from_omega_r,
)
from .model import (
    HermitianOperator,
    ModelParameters,
    build_full_hamiltonian,
    detuning_operator,
)
from .protocols import (
    MEASURED_SITE,
    ProtocolConfig,
    _initial_state,
    fidelity,
    ideal_protocol1_output,
    run_protocol2,
)


@dataclass(frozen=True)
class RobustnessConfig:
    """One fidelity-vs-xi sweep."""

    base: ProtocolConfig
    xi_values: tuple[float, ...]      # rad/s, same units as the couplings
    n_dt: int = 100
    mode: str = "pulsed"              # "pulsed" or "static"
    source: str = "direct"            # "direct" or "physical"
    protocol: int = 1
    start_sign: int = 1
    trap: TrapParameters | None = None

    def __post_init__(self):
        if self.n_dt < 1:
            raise ValueError(f"n_dt must be >= 1, got {self.n_dt}")
        if self.mode not in ("pulsed", "static"):
            raise ValueError(f"mode must be 'pulsed' or 'static', got {self.mode!r}")
        if self.source not in ("direct", "physical"):
            raise ValueError(f"source must be 'direct' or 'physical', got {self.source!r}")
        if self.protocol not in (1, 2):
            raise ValueError(f"protocol must be 1 or 2, got {self.protocol}")
        if self.start_sign not in (1, -1):
            raise ValueError(f"start_sign must be +1 or -1, got {self.start_sign}")
        if self.source == "physical" and self.trap is None:
            raise ValueError("physical source requires trap parameters")


@dataclass(frozen=True)
class RobustnessPoint:
    """Fidelity at one detuning value."""

    xi: float
    xi_over_j: float
    fidelity: float
    probability: float | None  # Protocol I: success probability P(r=0)


def pulsed_propagator(
    h_plus: HermitianOperator,
    h_minus: HermitianOperator,
    state: QuantumState,
    total_time: float,
    n_dt: int,
    start_sign: int = 1,
) -> QuantumState:
    """Apply n_dt full +/- oscillations across total_time.

    One oscillation is a +xi slice followed by a -xi slice (order set by
    start_sign), each lasting total_time / (2 n_dt), so the alternation
    period is total_time / n_dt and the time-averaged Hamiltonian is the
    unperturbed one.
    """
    if n_dt < 1:
        raise ValueError(f"n_dt must be >= 1, got {n_dt}")
    if total_time < 0.0:
        raise ValueError(f"total_time must be >= 0, got {total_time:g}")
    dt = total_time / (2 * n_dt)
    first, second = (h_plus, h_minus) if start_sign >= 0 else (h_minus, h_plus)
    for i in range(2 * n_dt):
        state = evolve(state, first if i % 2 == 0 else second, dt)
    return state


@dataclass(frozen=True)
class _DetunedSystem:
    """Hamiltonians and timings realized at one xi value, as protocol dynamics."""

    h_plus: HermitianOperator           # integrable interval, +xi
    h_minus: HermitianOperator          # integrable interval, -xi
    h_mu: HermitianOperator             # mu pulse, +xi detuning
    h_nu: HermitianOperator             # inverted-sign nu pulse, +xi detuning
    cfg: ProtocolConfig                 # mean-coupling config (timings, ideals)
    config: RobustnessConfig
    basis: FockBasis

    def band(self, state: QuantumState, cfg: ProtocolConfig, t: float) -> QuantumState:
        """Static: H(+xi) throughout; pulsed: alternating H(+xi) and H(-xi)."""
        if self.config.mode == "static":
            return evolve(state, self.h_plus, t)
        return pulsed_propagator(
            self.h_plus, self.h_minus, state, t, self.config.n_dt, self.config.start_sign)

    def mu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        return evolve(self.band(state, cfg, cfg.t_m - cfg.t_mu), self.h_mu, cfg.t_mu)

    def nu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        return evolve(self.band(state, cfg, cfg.t_m - cfg.t_nu), self.h_nu, cfg.t_nu)


def _direct_system(config: RobustnessConfig, basis: FockBasis, xi: float) -> _DetunedSystem:
    base = config.base
    perturbation = xi * detuning_operator(basis)
    h_free = build_full_hamiltonian(base.params, basis)
    h_mu = build_full_hamiltonian(base.params.with_fields(mu=base.mu, nu=0.0), basis)
    h_nu = build_full_hamiltonian(base.params.with_fields(mu=0.0, nu=-base.nu), basis)
    return _DetunedSystem(
        h_plus=HermitianOperator(basis, h_free.matrix + perturbation, check=False),
        h_minus=HermitianOperator(basis, h_free.matrix - perturbation, check=False),
        h_mu=HermitianOperator(basis, h_mu.matrix + perturbation, check=False),
        h_nu=HermitianOperator(basis, h_nu.matrix + perturbation, check=False),
        cfg=base, config=config, basis=basis,
    )


def _solve_detuned_omega(trap: TrapParameters, target: float, omega_guess: float) -> float:
    """Radial frequency where U0(omega) - U13(omega) = target."""
    lo, hi = 0.5 * omega_guess, 1.5 * omega_guess
    return float(optimize.brentq(
        lambda w: integrability_residual(trap, w) - target, lo, hi, rtol=1e-10))


def _physical_params(trap: TrapParameters, omega_r: float, j: float) -> tuple[ModelParameters, float]:
    """Full couplings and the mu scale factor realized at omega_r."""
    # Not model_parameters_from_lattice: it snaps U0 = U13 near the root, which moves the xi = 0 row.
    derived = derive(trap, omega_r)
    params = ModelParameters(
        u0=derived.u0,
        u12=derived.u12, u14=derived.u12, u23=derived.u12, u34=derived.u12,
        u13=derived.u13, u24=derived.u13,
        j=j,
    )
    return params, v0_from_omega_r(trap, omega_r)


def _physical_system(config: RobustnessConfig, basis: FockBasis, omega_star: float,
                     v0_star: float, xi: float) -> _DetunedSystem:
    """The system at xi around the integrable root omega_star, where V0 = v0_star."""
    base = config.base
    trap = config.trap
    omega_plus = _solve_detuned_omega(trap, +xi, omega_star)
    omega_minus = _solve_detuned_omega(trap, -xi, omega_star)
    params_plus, v0_plus = _physical_params(trap, omega_plus, base.params.j)
    params_minus, v0_minus = _physical_params(trap, omega_minus, base.params.j)
    mu_plus, mu_minus = base.mu * v0_plus / v0_star, base.mu * v0_minus / v0_star
    nu_plus, nu_minus = base.nu * v0_plus / v0_star, base.nu * v0_minus / v0_star
    # Mean couplings (projected onto the integrable manifold; the +- U0-U13
    # residuals cancel to root-finder tolerance) fix t_m and t_mu.
    u_mean = 0.5 * (params_plus.coupling_u() + params_minus.coupling_u())
    u0_mean = 0.5 * (params_plus.u0 + params_minus.u0)
    mean_cfg = ProtocolConfig(
        m_occ=base.m_occ, p_occ=base.p_occ,
        params=ModelParameters.integrable_set(u=u_mean, j=base.params.j, u0=u0_mean),
        mu=0.5 * (mu_plus + mu_minus), nu=0.5 * (nu_plus + nu_minus),
        theta=base.theta, t_m_override=base.t_m_override,
    )
    return _DetunedSystem(
        h_plus=build_full_hamiltonian(params_plus, basis),
        h_minus=build_full_hamiltonian(params_minus, basis),
        h_mu=build_full_hamiltonian(params_plus.with_fields(mu=mu_plus, nu=0.0), basis),
        h_nu=build_full_hamiltonian(params_plus.with_fields(mu=0.0, nu=-nu_plus), basis),
        cfg=mean_cfg, config=config, basis=basis,
    )


def _run_point(system: _DetunedSystem, xi: float) -> RobustnessPoint:
    cfg = system.cfg
    if system.config.protocol == 2:
        return RobustnessPoint(xi, xi / cfg.params.j, run_protocol2(cfg, system).fidelity, None)
    state = system.mu_segment(_initial_state(cfg, system.basis), cfg)
    probability = dict(measure_distribution(state, MEASURED_SITE)).get(0, 0.0)
    if probability == 0.0:
        return RobustnessPoint(xi, xi / cfg.params.j, 0.0, 0.0)
    record = project(state, MEASURED_SITE, 0)
    ideal = ideal_protocol1_output(cfg, system.basis, 0)
    return RobustnessPoint(xi, xi / cfg.params.j, fidelity(ideal, record.post_state), probability)


def run_robustness(config: RobustnessConfig, basis: FockBasis) -> list[RobustnessPoint]:
    """Fidelity (and Protocol I success probability) across the xi grid, one system at a time."""
    if config.source == "direct":
        build = partial(_direct_system, config, basis)
    else:
        omega_star = solve_integrability(config.trap).omega_r
        build = partial(_physical_system, config, basis, omega_star,
                        v0_from_omega_r(config.trap, omega_star))
    return [_run_point(build(xi), xi) for xi in config.xi_values]


def threshold_xi(points: list[RobustnessPoint], level: float = 0.9) -> float | None:
    """Largest |xi/J| on the grid with fidelity still above `level`."""
    passing = [abs(p.xi_over_j) for p in points if p.fidelity > level]
    return max(passing) if passing else None
