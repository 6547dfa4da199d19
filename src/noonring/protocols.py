"""NOON-state generation protocols, their analytic targets, and readout.

Protocol I (probabilistic, one measurement):
    (i)   evolve |M,P,0,0> under the integrable H for t_m - t_mu,
    (ii)  evolve with the site-2/4 field mu on for t_mu,
    (iii) projectively measure the occupation of site 3.
Outcomes r = 0 and r = M herald NOON states on sites 2-4; other outcomes
are post-selection failures.

Protocol II (deterministic, no measurement): integrable evolution for
t_m - t_nu, a site-1/3 field pulse for t_nu, integrable evolution for
t_m - t_mu, and the mu pulse for t_mu.

Phases: theta = 2 mu t_mu encodes a relative phase P*theta on the
|M,0,0,P> branch.  The nu pulse satisfies 2 nu t_nu = pi/(2M) and is
applied with the *inverted* field sign (exp(+i (pi/4M)(N1 - N3)) in the
idealized limit, i.e. the displacement pattern generating nu is reversed).
This sign is fixed by the interferometric readout law of Protocol II,
P(0) = sin^2(P theta/2 - pi/4): with it, the deterministic output is
(|M,P,0,0> + Upsilon |M,0,0,P>)/sqrt(2) with Upsilon = beta e^{i(P theta
+ pi/2)}, and a further t_m of integrable evolution converts the encoded
phase into that site-3 population law exactly.

Each runner takes the dynamics the steps run under: FullDynamics for the
full simulation, or IdealDynamics for the idealized limit (fields applied
as instantaneous phase gates, band dynamics generated by H_eff), which
serves as its analytic oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MeasurementRecord, evolve, measure_distribution, project
from .fock import FockBasis, QuantumState
from .model import (
    DerivedScales,
    HermitianOperator,
    ModelParameters,
    build_effective_hamiltonian_charges,
    build_full_hamiltonian,
    derived_scales,
)

MEASURED_SITE = 3


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to run either protocol once.

    params holds the integrable couplings with both fields off; mu and nu
    are the field magnitudes switched on only during the t_mu / t_nu steps.
    theta = 2 mu t_mu is the encoding phase variable (the encoded NOON
    phase is P theta).
    """

    m_occ: int
    p_occ: int
    params: ModelParameters
    mu: float
    nu: float
    theta: float
    derived: DerivedScales = field(init=False)
    t_m_override: float | None = None

    def __post_init__(self):
        if not self.params.integrable():
            raise ValueError("protocol couplings must satisfy U13 = U24 = U0, "
                             "U12 = U23 = U34 = U14")
        if self.params.mu != 0.0 or self.params.nu != 0.0:
            raise ValueError("params must have mu = nu = 0; fields are applied "
                             "only during the pulse steps")
        n_total = self.m_occ + self.p_occ
        if n_total % 2 == 0:
            raise ValueError(f"total particle number N = M + P must be odd, got {n_total}")
        if self.mu <= 0.0 or self.nu <= 0.0:
            raise ValueError("field strengths mu and nu must be positive")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta:g}")
        object.__setattr__(self, "derived", derived_scales(self.params, self.m_occ, self.p_occ))
        if self.t_m_override is not None and self.t_m_override <= 0.0:
            raise ValueError("t_m override must be positive")
        if self.t_mu >= self.t_m:
            raise ValueError(f"t_mu = {self.t_mu:g} s must be below t_m = {self.t_m:g} s")
        if self.t_nu >= self.t_m:
            raise ValueError(f"t_nu = {self.t_nu:g} s must be below t_m = {self.t_m:g} s")

    @property
    def n_total(self) -> int:
        return self.m_occ + self.p_occ

    @property
    def beta(self) -> int:
        return self.derived.beta

    @property
    def t_m(self) -> float:
        return self.t_m_override if self.t_m_override is not None else self.derived.t_m

    @property
    def t_mu(self) -> float:
        """Field-on time encoding theta: t_mu = theta / (2 mu)."""
        return self.theta / (2.0 * self.mu)

    @property
    def t_nu(self) -> float:
        """Fixed nu-pulse time: t_nu = pi / (4 M nu)."""
        return math.pi / (4.0 * self.m_occ * self.nu)

    @property
    def p_theta(self) -> float:
        return self.p_occ * self.theta

    def with_theta(self, theta: float) -> "ProtocolConfig":
        return ProtocolConfig(
            m_occ=self.m_occ, p_occ=self.p_occ, params=self.params,
            mu=self.mu, nu=self.nu, theta=theta, t_m_override=self.t_m_override,
        )


def protocol_config(
    m_occ: int,
    p_occ: int,
    u: float,
    j: float,
    mu: float,
    nu: float | None = None,
    theta: float | None = None,
    p_theta: float | None = None,
    u0: float = 0.0,
    t_m_override: float | None = None,
) -> ProtocolConfig:
    """Convenience constructor from the band coupling U = (U12 - U0)/4."""
    if theta is not None and p_theta is not None:
        raise ValueError("give either theta or p_theta, not both")
    if theta is None:
        theta = 0.0 if p_theta is None else p_theta / p_occ
    return ProtocolConfig(
        m_occ=m_occ, p_occ=p_occ,
        params=ModelParameters.integrable_set(u=u, j=j, u0=u0),
        mu=mu, nu=mu if nu is None else nu, theta=theta,
        t_m_override=t_m_override,
    )


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome of one protocol run (one measurement branch for Protocol I)."""

    final_state: QuantumState
    ideal_state: QuantumState | None
    fidelity: float | None
    measurement: MeasurementRecord | None
    elapsed_model_time: float
    selected: bool = True


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|; global phases of either argument drop out."""
    return abs(a.overlap(b))


def _superposition(basis: FockBasis, terms: dict[tuple, complex]) -> QuantumState:
    amplitudes = np.zeros(basis.size, dtype=complex)
    for occupations, amplitude in terms.items():
        amplitudes[basis.index_of(occupations)] = amplitude
    return QuantumState(basis, amplitudes).normalized()


def ideal_uber_noon(cfg: ProtocolConfig, basis: FockBasis, stage: str = "post_field") -> QuantumState:
    """Four-branch superposition after the first t_m (and the mu pulse).

    pre_field:  (beta|M,P,0,0> + |M,0,0,P> + |0,P,M,0> - beta|0,0,M,P>)/2
    post_field: same with e^{i P theta} on the |.,0,.,P> branches.
    """
    m, p = cfg.m_occ, cfg.p_occ
    beta = cfg.beta
    if stage == "pre_field":
        phase = 1.0
    elif stage == "post_field":
        phase = np.exp(1j * cfg.p_theta)
    else:
        raise ValueError(f"stage must be 'pre_field' or 'post_field', got {stage!r}")
    return _superposition(basis, {
        (m, p, 0, 0): 0.5 * beta,
        (m, 0, 0, p): 0.5 * phase,
        (0, p, m, 0): 0.5,
        (0, 0, m, p): -0.5 * beta * phase,
    })


def ideal_protocol1_output(cfg: ProtocolConfig, basis: FockBasis, r: int) -> QuantumState:
    """Post-measurement NOON state on sites 2-4 for outcome r in {0, M}."""
    m, p = cfg.m_occ, cfg.p_occ
    beta = cfg.beta
    phase = np.exp(1j * cfg.p_theta)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if r == 0:
        return _superposition(basis, {
            (m, p, 0, 0): beta * inv_sqrt2,
            (m, 0, 0, p): phase * inv_sqrt2,
        })
    if r == m:
        return _superposition(basis, {
            (0, p, m, 0): inv_sqrt2,
            (0, 0, m, p): -beta * phase * inv_sqrt2,
        })
    raise ValueError(f"ideal Protocol I output exists only for r in {{0, {m}}}, got {r}")


def ideal_protocol2_output(cfg: ProtocolConfig, basis: FockBasis) -> QuantumState:
    """Deterministic NOON output (|M,P,0,0> + Upsilon|M,0,0,P>)/sqrt(2).

    Upsilon = beta e^{i(P theta + pi/2)}, the phase consistent with the
    inverted-sign nu pulse and the readout law P(0) = sin^2(P theta/2 - pi/4).
    """
    m, p = cfg.m_occ, cfg.p_occ
    upsilon = cfg.beta * np.exp(1j * (cfg.p_theta + math.pi / 2.0))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return _superposition(basis, {
        (m, p, 0, 0): inv_sqrt2,
        (m, 0, 0, p): upsilon * inv_sqrt2,
    })


# --- Dynamics: band evolution, and the t_m segments ending in a pulse ----


class FullDynamics:
    """The full simulation: band evolution under the integrable H, and the
    fields switched on for the last t_mu (t_nu) of a t_m segment.

    Owns the basis and its Hamiltonians for as long as the run that uses it
    lives; share one across a theta sweep, so each H is diagonalized once.
    The runners need only `basis`, `band`, `mu_segment` and `nu_segment`.
    """

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self._hamiltonians: dict[ModelParameters, HermitianOperator] = {}

    def hamiltonian(self, params: ModelParameters) -> HermitianOperator:
        """Dense H at `params`, built on first use and kept (with its eigensystem)."""
        if params not in self._hamiltonians:
            self._hamiltonians[params] = build_full_hamiltonian(params, self.basis)
        return self._hamiltonians[params]

    def band(self, state: QuantumState, cfg: ProtocolConfig, t: float) -> QuantumState:
        return evolve(state, self.hamiltonian(cfg.params), t)

    def mu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        state = self.band(state, cfg, cfg.t_m - cfg.t_mu)
        h_mu = self.hamiltonian(cfg.params.with_fields(mu=cfg.mu, nu=0.0))
        return evolve(state, h_mu, cfg.t_mu)

    def nu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        """As mu_segment, with the inverted-sign nu pulse."""
        state = self.band(state, cfg, cfg.t_m - cfg.t_nu)
        h_nu = self.hamiltonian(cfg.params.with_fields(mu=0.0, nu=-cfg.nu))
        return evolve(state, h_nu, cfg.t_nu)


class IdealDynamics:
    """The idealized limit and analytic oracle of FullDynamics: band
    evolution under H_eff for the whole t_m, then the field pulse as an
    instantaneous phase gate."""

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self._effective: dict[DerivedScales, HermitianOperator] = {}

    def band(self, state: QuantumState, cfg: ProtocolConfig, t: float) -> QuantumState:
        if cfg.derived not in self._effective:
            self._effective[cfg.derived] = build_effective_hamiltonian_charges(
                self.basis, cfg.n_total, cfg.derived)
        return evolve(state, self._effective[cfg.derived], t)

    def mu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        """Ends in the mu gate: amplitudes pick up e^{-i(theta/2)(n2 - n4)}."""
        occ, state = self.basis.occupations, self.band(state, cfg, cfg.t_m)
        phases = np.exp(-0.5j * cfg.theta * (occ[:, 1] - occ[:, 3]))
        return QuantumState(self.basis, phases * state.amplitudes)

    def nu_segment(self, state: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        """Ends in the inverted-sign nu gate: e^{+i(pi/4M)(n1 - n3)}."""
        occ, state = self.basis.occupations, self.band(state, cfg, cfg.t_m)
        phases = np.exp(0.25j * math.pi / cfg.m_occ * (occ[:, 0] - occ[:, 2]))
        return QuantumState(self.basis, phases * state.amplitudes)


# --- Protocol runners -----------------------------------------------------


def _initial_state(cfg: ProtocolConfig, basis: FockBasis) -> QuantumState:
    return QuantumState.from_fock(basis, (cfg.m_occ, cfg.p_occ, 0, 0))


def _branch_ideal(cfg: ProtocolConfig, basis: FockBasis, r: int) -> QuantumState:
    """Reference state for outcome r: symmetric NOON for r in {0, 1},
    antisymmetric for r >= 2 (the benchmark-table convention)."""
    return ideal_protocol1_output(cfg, basis, 0 if r <= 1 else cfg.m_occ)


def run_protocol1(
    cfg: ProtocolConfig,
    dynamics: FullDynamics | IdealDynamics,
    postselect: tuple[int, ...] | None = None,
) -> list[ProtocolReport]:
    """Run Protocol I (mu segment, then measure site 3) and resolve every branch.

    Returns one report per outcome r with nonzero probability (ascending r).
    Reports whose outcome is outside `postselect` (default {0, M}) are
    flagged selected=False: those runs would be discarded and repeated.
    """
    if postselect is None:
        postselect = (0, cfg.m_occ)
    basis = dynamics.basis
    state = dynamics.mu_segment(_initial_state(cfg, basis), cfg)
    reports = []
    for r, _probability in measure_distribution(state, MEASURED_SITE):
        record = project(state, MEASURED_SITE, r)
        ideal = _branch_ideal(cfg, basis, r)
        reports.append(ProtocolReport(
            final_state=record.post_state,
            ideal_state=ideal,
            fidelity=fidelity(ideal, record.post_state),
            measurement=record,
            elapsed_model_time=cfg.t_m,
            selected=r in postselect,
        ))
    return reports


def run_protocol2(cfg: ProtocolConfig, dynamics: FullDynamics | IdealDynamics) -> ProtocolReport:
    """Run Protocol II (nu segment, then mu segment; no measurement).

    The nu pulse is applied with the inverted field sign (see module
    docstring); the mu pulse follows the same convention as Protocol I.
    """
    state = dynamics.nu_segment(_initial_state(cfg, dynamics.basis), cfg)
    state = dynamics.mu_segment(state, cfg)
    ideal = ideal_protocol2_output(cfg, dynamics.basis)
    return ProtocolReport(
        final_state=state,
        ideal_state=ideal,
        fidelity=fidelity(ideal, state),
        measurement=None,
        elapsed_model_time=2.0 * cfg.t_m,
    )


# --- Readout --------------------------------------------------------------


@dataclass(frozen=True)
class ReadoutResult:
    """Site-3 statistics after a further t_m of integrable evolution.

    `outcomes` is conditional on the branch that produced the report;
    `joint` folds in the branch probability (Protocol I only).  `laws`
    holds the analytic probability laws evaluated at the report's P theta.
    """

    readout_state: QuantumState
    outcomes: list[tuple[int, float]]
    joint: list[tuple[int, float]] | None
    laws: dict[str, float]


def protocol1_laws(p_theta: float) -> dict[str, float]:
    half = 0.5 * p_theta
    return {
        "P_I(.,0)": 0.5 * math.cos(half) ** 2,
        "P_I(.,M)": 0.5 * math.sin(half) ** 2,
    }


def protocol2_laws(p_theta: float) -> dict[str, float]:
    shifted = 0.5 * p_theta - 0.25 * math.pi
    return {
        "P_II(0)": math.sin(shifted) ** 2,
        "P_II(M)": math.cos(shifted) ** 2,
    }


def run_readout(report: ProtocolReport, cfg: ProtocolConfig,
                dynamics: FullDynamics | IdealDynamics) -> ReadoutResult:
    """Evolve the protocol output by a further t_m of band evolution and measure site 3."""
    readout_state = dynamics.band(report.final_state, cfg, cfg.t_m)
    outcomes = measure_distribution(readout_state, MEASURED_SITE)
    if report.measurement is not None:
        joint = [(r, report.measurement.probability * p) for r, p in outcomes]
        laws = protocol1_laws(cfg.p_theta)
    else:
        joint = None
        laws = protocol2_laws(cfg.p_theta)
    return ReadoutResult(readout_state=readout_state, outcomes=outcomes, joint=joint, laws=laws)


READOUT_LAWS = {
    "cos2": lambda p_theta: math.cos(0.5 * p_theta) ** 2,
    "sin2": lambda p_theta: math.sin(0.5 * p_theta) ** 2,
    "shifted_sin2": lambda p_theta: math.sin(0.5 * p_theta - 0.25 * math.pi) ** 2,
    "shifted_cos2": lambda p_theta: math.cos(0.5 * p_theta - 0.25 * math.pi) ** 2,
}


def fit_readout_amplitudes(samples: list[tuple[float, float]], law: str) -> float:
    """Least-squares scale factor c for probability = c * law(P theta).

    Closed form: c = sum(P * law) / sum(law^2).  Data generated exactly
    from 0.5 cos^2(P theta / 2) therefore fits cos2 with c = 0.5.
    """
    try:
        law_fn = READOUT_LAWS[law]
    except KeyError:
        raise ValueError(
            f"law must be one of {sorted(READOUT_LAWS)}, got {law!r}"
        ) from None
    if len({p_theta for p_theta, _ in samples}) < 3:
        raise ValueError("need at least 3 samples at distinct P theta values")
    law_values = np.array([law_fn(p_theta) for p_theta, _ in samples])
    probabilities = np.array([probability for _, probability in samples])
    denominator = float(law_values @ law_values)
    if denominator == 0.0:
        raise ValueError(f"law {law!r} vanishes on every sample; cannot fit")
    return float(law_values @ probabilities) / denominator
