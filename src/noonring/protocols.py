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

A ProtocolConfig holds only the inputs a theta sweep keeps fixed (M, P, the
band coupling U, J, the field strengths and an optional t_m); Omega, t_m,
t_nu and beta are computed from them, and t_mu from each theta the runners
are given.

Each runner takes the dynamics the steps run under: FullDynamics for the
full simulation, or IdealDynamics for the idealized limit (fields applied
as instantaneous phase gates, band dynamics generated by H_eff), which
serves as its analytic oracle.  Both evolve in the normal-mode basis of
`noonring.model` (small blocks of H, diagonal H_eff); the runners see
site-basis states only.  FullDynamics writes its segments in terms of two
hooks, the (couplings, duration) steps of a band interval and the couplings
of the two pulses; the detuned dynamics of `noonring.robustness` overrides
only those.  The inverted-sign nu pulse is the ring rotation R of a mu
pulse, exp(-i H(nu = -s) t) = R exp(-i H(mu = s) t) R^T (`noonring.model`),
so both hooks give mu fields: at nu = mu, as in both presets, the two pulses
are one operator, and a Protocol II sweep diagonalizes one pulse.

A run ends in a ProtocolReport: the output state and its fidelity to the
ideal target, plus, for each Protocol I branch, the site-3 outcome r and its
probability.  Protocol I projects only the branches it keeps, r = 0 and
r = M, each scored against its own target; a discarded branch's fidelity is
0 by support, and its state is formed when read.  A fidelity reads the
evolved state at its target's few entries only, whose positions a sweep
finds once; a kept branch's is that overlap over sqrt(P_r), so the branch
is not formed either.  The readout evolves an
output state by a further t_m and measures site 3 again; its (N + 1,)
outcome distribution, read against the READOUT_LAWS of P theta, recovers
the encoded phase.

A theta sweep runs as stacks of states (`noonring.dynamics`):
`sweep_protocol1`, `sweep_protocol2` and `sweep_readout` take one config and
an array of theta, evolve the thetas `stack_columns` at a time, one column
per theta, and yield one result per theta as they go, so a long sweep holds
one stack, not every theta's states.  A stack starts as copies of one state,
which changes into the normal modes once.  They check every theta (theta >= 0,
t_mu below t_m) before the first segment runs.  Protocol II's nu segment
does not depend on theta, so it runs once per sweep; the readout evolves the
protocol sweep's output states `stack_columns` at a time.  `run_protocol1`
and `run_protocol2` are the one-theta case.

`band_trace` follows |M,P,0,0> through one band interval under both
dynamics, a stack of times at a time: the corner and uber-NOON populations
of the full evolution, and its overlap with the H_eff evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import evolve, site_probabilities, stack_columns
from .fock import FockBasis, QuantumState
from .model import HermitianOperator, ModelParameters, NormalModes, build_mode_hamiltonian

MEASURED_SITE = 3


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a theta sweep of either protocol holds fixed.

    The ring sits at its integrable point U13 = U0, where H in the sector
    N = M + P is U0 N(N-1)/2 + 4U M P plus hopping and fields: U0 adds only a
    global phase, so U = (U12 - U0)/4 and J fix the couplings (`params`).
    mu and nu are the field magnitudes switched on only during the t_mu /
    t_nu steps.  The encoding phase variable theta = 2 mu t_mu (the encoded
    NOON phase is P theta) is given to each run.  The band scales Omega, t_m
    and beta follow from these (`noonring.model` docstring).
    """

    m_occ: int
    p_occ: int
    u: float
    j: float
    mu: float
    nu: float
    t_m_override: float | None = None

    def __post_init__(self):
        _check_occupations(self.m_occ, self.p_occ)
        # "not x > 0" rather than "x <= 0": NaN fails these checks too.
        if not (self.mu > 0.0 and self.nu > 0.0):
            raise ValueError("field strengths mu and nu must be positive")
        if not self.u > 0.0:
            raise ValueError(f"U = (U12 - U0)/4 must be positive, got {self.u:g}")
        if self.t_m_override is not None and not self.t_m_override > 0.0:
            raise ValueError("t_m override must be positive")
        if not self.t_nu < self.t_m:   # a NaN J gives a NaN t_m, refused here
            raise ValueError(f"t_nu = {self.t_nu:g} s must be below t_m = {self.t_m:g} s")

    @property
    def params(self) -> ModelParameters:
        """The integrable couplings at U0 = 0, with both fields off."""
        return ModelParameters.integrable_set(u=self.u, j=self.j)

    @property
    def n_total(self) -> int:
        return self.m_occ + self.p_occ

    @property
    def omega(self) -> float:
        """The band frequency Omega = J^2 / (4U((M-P)^2 - 1)) of H_eff."""
        return self.j**2 / (4.0 * self.u * ((self.m_occ - self.p_occ) ** 2 - 1))

    @property
    def beta(self) -> int:
        """The parity phase (-1)^((N+1)/2) of the four-branch superposition."""
        return (-1) ** ((self.n_total + 1) // 2)

    @property
    def t_m(self) -> float:
        """The band half-period pi / (2 Omega) (inf at J = 0), or its override."""
        if self.t_m_override is not None:
            return self.t_m_override
        return math.pi / (2.0 * self.omega) if self.omega != 0.0 else math.inf

    def t_mu(self, theta):
        """Field-on time encoding theta (a float or an array): t_mu = theta / (2 mu)."""
        return theta / (2.0 * self.mu)

    @property
    def t_nu(self) -> float:
        """Fixed nu-pulse time: t_nu = pi / (4 M nu)."""
        return math.pi / (4.0 * self.m_occ * self.nu)


def _check_occupations(m_occ: int, p_occ: int) -> None:
    """Both protocols need M, P >= 1 (t_nu = pi/(4 M nu) divides by M, theta = (P theta)/P
    by P), an odd N = M + P, and |M - P| >= 2 for the band scales (`ProtocolConfig.omega`)."""
    if m_occ < 1 or p_occ < 1:
        raise ValueError(f"occupations M and P must be >= 1, got M={m_occ}, P={p_occ}")
    if (m_occ + p_occ) % 2 == 0:
        raise ValueError(f"total particle number N = M + P must be odd, got {m_occ + p_occ}")
    if abs(m_occ - p_occ) < 2:
        raise ValueError(
            f"need |M - P| >= 2 for the resonant-regime scales, got M={m_occ}, P={p_occ}")


def _check_thetas(cfg: ProtocolConfig, thetas) -> np.ndarray:
    """`thetas` as a float array, once each is >= 0 (not NaN) and t_mu is below t_m at the
    largest."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(thetas >= 0.0):
        raise ValueError(f"theta must be >= 0, got {thetas[~(thetas >= 0.0)][0]:g}")
    if thetas.size and cfg.t_mu(thetas.max()) >= cfg.t_m:
        raise ValueError(f"t_mu = {cfg.t_mu(thetas.max()):g} s must be below t_m = {cfg.t_m:g} s")
    return thetas


class ProtocolReport:
    """Outcome of one protocol run (one measurement branch for Protocol I).

    `outcome` and `probability` are the branch's site-3 occupation r and its
    probability (Protocol I only).  A branch with r outside {0, M} has
    selected=False: that run would be discarded and repeated.

    `final_state` is the state, or a zero-argument function that forms it on first
    read: a Protocol I sweep gives each branch one over a view of its stack.  A
    discarded branch has fidelity 0 by support (every target lies on n3 in {0, M}).
    """

    __slots__ = ("_final_state", "fidelity", "outcome", "probability", "selected")

    def __init__(self, final_state, fidelity: float, outcome: int | None = None,
                 probability: float | None = None, selected: bool = True):
        self._final_state, self.fidelity = final_state, fidelity
        self.outcome, self.probability, self.selected = outcome, probability, selected

    @property
    def final_state(self) -> QuantumState:
        if not isinstance(self._final_state, QuantumState):
            self._final_state = self._final_state()
        return self._final_state


def _positions_of(basis: FockBasis, terms: dict[tuple, complex]) -> np.ndarray:
    """The basis positions of the occupations of `terms`, in their order."""
    return np.array([basis.index_of(occupations) for occupations in terms])


def _amplitudes(terms: dict[tuple, complex]) -> np.ndarray:
    """The amplitudes of `terms`, normalized: the nonzero entries of the state they give."""
    amplitudes = np.array(list(terms.values()), dtype=complex)
    return amplitudes / np.linalg.norm(amplitudes)


def _uber_noon_terms(cfg: ProtocolConfig, p_theta: float) -> dict[tuple, complex]:
    """The four-branch superposition after the first t_m and the mu pulse encoding
    `p_theta`, before normalizing:

    (beta|M,P,0,0> + e^{i P theta}|M,0,0,P> + |0,P,M,0> - beta e^{i P theta}|0,0,M,P>)/2.

    P theta = 0 is the state before the field.
    """
    m, p = cfg.m_occ, cfg.p_occ
    beta = cfg.beta
    phase = np.exp(1j * p_theta)
    return {
        (m, p, 0, 0): 0.5 * beta,
        (m, 0, 0, p): 0.5 * phase,
        (0, p, m, 0): 0.5,
        (0, 0, m, p): -0.5 * beta * phase,
    }


def _protocol1_terms(cfg: ProtocolConfig, r: int, p_theta: float) -> dict[tuple, complex]:
    """The post-measurement NOON state on sites 2-4 for outcome r in {0, M}, encoding
    `p_theta`, before normalizing."""
    m, p = cfg.m_occ, cfg.p_occ
    beta = cfg.beta
    phase = np.exp(1j * p_theta)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if r == 0:
        return {(m, p, 0, 0): beta * inv_sqrt2, (m, 0, 0, p): phase * inv_sqrt2}
    return {(0, p, m, 0): inv_sqrt2, (0, 0, m, p): -beta * phase * inv_sqrt2}


def _protocol2_terms(cfg: ProtocolConfig, p_theta: float) -> dict[tuple, complex]:
    """The deterministic NOON output (|M,P,0,0> + Upsilon|M,0,0,P>)/sqrt(2) encoding
    `p_theta`, before normalizing.

    Upsilon = beta e^{i(P theta + pi/2)}, the phase consistent with the
    inverted-sign nu pulse and the readout law P(0) = sin^2(P theta/2 - pi/4).
    """
    m, p = cfg.m_occ, cfg.p_occ
    upsilon = cfg.beta * np.exp(1j * (p_theta + math.pi / 2.0))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {(m, p, 0, 0): inv_sqrt2, (m, 0, 0, p): upsilon * inv_sqrt2}


# --- Dynamics: band evolution, and the t_m segments ending in a pulse ----


class _ModeDynamics:
    """Owns a basis, its normal modes and the operators built there, keyed by
    their couplings, for as long as the run that uses it lives; share one
    across a theta sweep, so each operator is diagonalized once.

    The runners need only `basis` and three segments, which map a state or an
    (n, K) stack: `band(states, cfg, t)` and `nu_segment(states, cfg)` take the
    couplings and times of `cfg`, and `mu_segment(states, cfg, theta)` pulses
    each column k for theta[k] / (2 mu) (one theta serves every column)."""

    def __init__(self, basis: FockBasis, modes: NormalModes | None = None):
        """`modes` may hand in the NormalModes of `basis`, shared with other dynamics."""
        self.basis, self._operators = basis, {}
        self.modes = NormalModes(basis) if modes is None else modes

    def hamiltonian(self, couplings) -> HermitianOperator:
        """The operator at `couplings`, built on first use and kept (with its eigensystem)."""
        if couplings not in self._operators:
            self._operators[couplings] = self._build(couplings)
        return self._operators[couplings]

    def evolve(self, state: QuantumState, steps) -> QuantumState:
        """Site-basis `state` after the operator at each (couplings, duration) step in turn,
        run in the mode basis."""
        modes = self.modes
        state = modes.change(state, modes.basis)
        for couplings, t in steps:
            state = evolve(state, self.hamiltonian(couplings), t)
        return modes.change(state, modes.sites)


class FullDynamics(_ModeDynamics):
    """The full simulation: band evolution under the integrable H, and the
    fields switched on for the last t_mu (t_nu) of a t_m segment.  Its
    couplings are ModelParameters, and H is held in normal-mode blocks.

    The segments read their couplings from two hooks, which a subclass may
    override (the detuned dynamics of `noonring.robustness` does):
    `_band_steps(cfg, t)` lists the (couplings, duration) steps of a band
    interval t, and `_pulses(cfg)` gives the mu pulse's couplings and the mu
    form of the inverted-sign nu pulse: the couplings with mu = nu, nu = 0,
    which `nu_segment` runs between the ring rotation R^T and R.  At nu = mu
    the two are the same operator, and the nu hop is never enumerated."""

    def _build(self, params: ModelParameters) -> HermitianOperator:
        return build_mode_hamiltonian(params, self.modes)

    def _band_steps(self, cfg: ProtocolConfig, t) -> list:
        return [(cfg.params, t)]

    def _pulses(self, cfg: ProtocolConfig) -> tuple[ModelParameters, ModelParameters]:
        return (cfg.params.with_fields(mu=cfg.mu, nu=0.0),
                cfg.params.with_fields(mu=cfg.nu, nu=0.0))

    def band(self, states: QuantumState, cfg: ProtocolConfig, t) -> QuantumState:
        return self.evolve(states, self._band_steps(cfg, t))

    def mu_segment(self, states: QuantumState, cfg: ProtocolConfig, theta) -> QuantumState:
        t_mu = cfg.t_mu(np.asarray(theta))   # one per column
        return self.evolve(states, [*self._band_steps(cfg, cfg.t_m - t_mu),
                                    (self._pulses(cfg)[0], t_mu)])

    def nu_segment(self, states: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        """As mu_segment, with the inverted-sign nu pulse, R exp(-i H(mu = nu) t_nu) R^T
        (`noonring.model.NormalModes.rotate`), in the mode basis."""
        modes = self.modes
        states = modes.change(states, modes.basis)
        for couplings, t in self._band_steps(cfg, cfg.t_m - cfg.t_nu):
            states = evolve(states, self.hamiltonian(couplings), t)
        pulse = self.hamiltonian(self._pulses(cfg)[1])
        states = evolve(modes.rotate(states, back=True), pulse, cfg.t_nu)
        return modes.change(modes.rotate(states), modes.sites)


class IdealDynamics(_ModeDynamics):
    """The idealized limit and analytic oracle of FullDynamics: band
    evolution under H_eff for the whole t_m, then the field pulse as an
    instantaneous phase gate, one per column.  Its couplings are the
    band frequency Omega; H_eff = (N+1) Omega (Q1 + Q2) - 2 Omega Q1 Q2 is diagonal
    in the normal modes (Q = n_d), so it is held as one entry of 1 x 1 blocks, one
    per mode state, whose eigh gives back its energies."""

    def _build(self, omega: float) -> HermitianOperator:
        modes = self.modes.basis
        q1, q2 = modes.occupations[:, 2:].T
        energies = (self.basis.n_total + 1) * omega * (q1 + q2) - 2.0 * omega * (q1 * q2)
        return HermitianOperator(modes, [(np.arange(modes.size)[:, None], energies[:, None, None])])

    def band(self, states: QuantumState, cfg: ProtocolConfig, t) -> QuantumState:
        return self.evolve(states, [(cfg.omega, t)])

    def _gate(self, states: QuantumState, phases: np.ndarray) -> QuantumState:
        """`states` times the (n, K) or (n, 1) gate phases, column by column."""
        amplitudes = phases * states.amplitudes.reshape(self.basis.size, -1)
        return QuantumState(self.basis, amplitudes.reshape(states.amplitudes.shape))

    def mu_segment(self, states: QuantumState, cfg: ProtocolConfig, theta) -> QuantumState:
        """Ends in the mu gate: column k picks up e^{-i(theta[k]/2)(n2 - n4)}."""
        occ, states = self.basis.occupations, self.band(states, cfg, cfg.t_m)
        phases = np.exp(-0.5j * np.asarray(theta) * (occ[:, 1] - occ[:, 3])[:, None])
        return self._gate(states, phases)

    def nu_segment(self, states: QuantumState, cfg: ProtocolConfig) -> QuantumState:
        """Ends in the inverted-sign nu gate: e^{+i(pi/4M)(n1 - n3)}."""
        occ, states = self.basis.occupations, self.band(states, cfg, cfg.t_m)
        phases = np.exp(0.25j * math.pi / cfg.m_occ * (occ[:, 0] - occ[:, 2])[:, None])
        return self._gate(states, phases)


# --- Protocol runners -----------------------------------------------------


def _initial_state(cfg: ProtocolConfig, basis: FockBasis) -> QuantumState:
    return QuantumState.from_fock(basis, (cfg.m_occ, cfg.p_occ, 0, 0))


def _copies(state: QuantumState, columns: int) -> QuantumState:
    """A stack of `columns` copies of the single `state`, as a read-only view of it, which
    changes into the normal modes as one column (`NormalModes.change`)."""
    return QuantumState(state.basis, np.broadcast_to(state.amplitudes[:, None],
                                                     (state.basis.size, columns)))


def _chunks(cfg: ProtocolConfig, thetas, basis: FockBasis) -> list[np.ndarray]:
    """`thetas`, checked (`_check_thetas`), in slices of at most one stack each."""
    thetas, size = _check_thetas(cfg, thetas), stack_columns(basis)
    return [thetas[start:start + size] for start in range(0, thetas.size, size)]


def _branch(basis: FockBasis, outcome, column, r: int, probability: float) -> QuantumState:
    """The renormalized projection of `column` onto site-3 outcome r, in an array of its own."""
    return QuantumState(basis, np.where(outcome == r, column, 0.0) / math.sqrt(probability))


def _overlap(terms: dict[tuple, complex], positions: np.ndarray, column: np.ndarray) -> float:
    """The fidelity |<target|column>| of `column` to the normalized state of `terms`, whose
    entries sit at `positions`: read there only.  Global phases of either state drop out."""
    return abs(complex(np.vdot(_amplitudes(terms), column[positions])))


def sweep_protocol1(cfg: ProtocolConfig, thetas, dynamics: FullDynamics | IdealDynamics):
    """`run_protocol1`'s reports at each of `thetas` in turn, evolved as stacks.

    A kept branch r is scored on its target's entries, which lie where site 3 holds r:
    its fidelity is |<target|column>| / sqrt(P_r), and the branch is not formed.
    """
    basis, initial = dynamics.basis, _initial_state(cfg, dynamics.basis)
    outcome = basis.occupations[:, MEASURED_SITE - 1]
    kept = {r: _positions_of(basis, _protocol1_terms(cfg, r, 0.0)) for r in (0, cfg.m_occ)}
    for chunk in _chunks(cfg, thetas, basis):
        states = dynamics.mu_segment(_copies(initial, chunk.size), cfg, chunk)
        probabilities = site_probabilities(states, MEASURED_SITE).T.tolist()
        for theta, column, weights in zip(chunk.tolist(), states.amplitudes.T, probabilities):
            reports = [ProtocolReport(partial(_branch, basis, outcome, column, r, weight), 0.0,
                                      r, weight, selected=r in kept)
                       for r, weight in enumerate(weights) if weight > 0.0]
            for report in reports:
                if report.selected:
                    terms = _protocol1_terms(cfg, report.outcome, cfg.p_occ * theta)
                    report.fidelity = (_overlap(terms, kept[report.outcome], column)
                                       / math.sqrt(report.probability))
            yield reports


def run_protocol1(cfg: ProtocolConfig, theta: float,
                  dynamics: FullDynamics | IdealDynamics) -> list[ProtocolReport]:
    """Run Protocol I (mu segment, then measure site 3) and resolve every branch.

    Returns one report per outcome r with nonzero probability (ascending r);
    those with r outside {0, M} are flagged selected=False.
    """
    return next(sweep_protocol1(cfg, [theta], dynamics))


def sweep_protocol2(cfg: ProtocolConfig, thetas, dynamics: FullDynamics | IdealDynamics):
    """`run_protocol2`'s report at each of `thetas` in turn, evolved as stacks.

    The nu segment does not depend on theta: it runs once, after the theta check.
    """
    basis = dynamics.basis
    chunks = _chunks(cfg, thetas, basis)
    start = dynamics.nu_segment(_initial_state(cfg, basis), cfg) if chunks else None
    positions = _positions_of(basis, _protocol2_terms(cfg, 0.0))
    for chunk in chunks:
        states = dynamics.mu_segment(_copies(start, chunk.size), cfg, chunk)
        for theta, column in zip(chunk.tolist(), states.amplitudes.T):
            yield ProtocolReport(
                final_state=QuantumState(basis, column.copy()),
                fidelity=_overlap(_protocol2_terms(cfg, cfg.p_occ * theta), positions, column),
            )


def run_protocol2(cfg: ProtocolConfig, theta: float,
                  dynamics: FullDynamics | IdealDynamics) -> ProtocolReport:
    """Run Protocol II (nu segment, then mu segment; no measurement).

    The nu pulse is applied with the inverted field sign (see module
    docstring); the mu pulse follows the same convention as Protocol I.
    """
    return next(sweep_protocol2(cfg, [theta], dynamics))


# --- Band trace -----------------------------------------------------------


def band_trace(cfg: ProtocolConfig, basis: FockBasis, times) -> np.ndarray:
    """|M,P,0,0> over one band interval, at each of `times`: shape (6, len(times)).

    Rows 0-3 are the populations of |M,P,0,0>, |0,P,M,0>, |M,0,0,P> and
    |0,0,M,P> under the full H, row 4 that of the pre-field uber-NOON state,
    and row 5 |<full(t)|eff(t)>|, the overlap with the evolution under H_eff.
    theta does not enter.  The times run `stack_columns` at a time.
    """
    m, p = cfg.m_occ, cfg.p_occ
    full = FullDynamics(basis)
    ideal = IdealDynamics(basis, full.modes)   # one NormalModes for both
    initial = _initial_state(cfg, basis)
    uber = _uber_noon_terms(cfg, 0.0)   # before the field
    uber_positions, uber = _positions_of(basis, uber), _amplitudes(uber)
    corners = [basis.index_of(occ) for occ in
               ((m, p, 0, 0), (0, p, m, 0), (m, 0, 0, p), (0, 0, m, p))]
    times, width = np.asarray(times, dtype=float), stack_columns(basis)
    stacks = []
    for start in range(0, times.size, width):   # one stack of times at a time
        ts = times[start:start + width]
        states = _copies(initial, ts.size)
        bras = full.band(states, cfg, ts).amplitudes.conj()   # <full(t)|, one column per t
        kets = ideal.band(states, cfg, ts).amplitudes
        stacks.append(np.vstack([
            np.abs(bras[corners]) ** 2,
            np.abs(uber @ bras[uber_positions]) ** 2,      # |<full|uber>|^2
            np.abs(np.einsum("ik,ik->k", bras, kets)),     # |<full|eff>|
        ]))
    return np.hstack(stacks)


# --- Readout --------------------------------------------------------------


def sweep_readout(cfg: ProtocolConfig, thetas, dynamics: FullDynamics | IdealDynamics,
                  protocol: int = 1):
    """At each of `thetas` in turn, [(report, distribution), ...]: one pair per
    selected Protocol I branch (protocol=1), or for the Protocol II report.

    `distribution` is the (N + 1,) site-3 occupation distribution of the
    report's state after a further t_m of band evolution (for Protocol I,
    conditional on the branch).  The reports' states read out in batches of at
    most `stack_columns`, one band step each (a theta's states stay in one batch).
    """
    if protocol not in (1, 2):
        raise ValueError(f"protocol must be 1 or 2, got {protocol}")
    if protocol == 1:
        groups = ([r for r in branches if r.selected]
                  for branches in sweep_protocol1(cfg, thetas, dynamics))
    else:
        groups = ([report] for report in sweep_protocol2(cfg, thetas, dynamics))
    width, batch = stack_columns(dynamics.basis), []
    for group in groups:
        if batch and sum(map(len, batch)) + len(group) > width:
            yield from _read_out(cfg, dynamics, batch)
            batch = []
        batch.append(group)
    yield from _read_out(cfg, dynamics, batch)


def _read_out(cfg: ProtocolConfig, dynamics: FullDynamics | IdealDynamics, batch: list):
    """Each group of reports in `batch` paired with the site-3 distributions of its
    states after one band step of t_m, taken by the whole batch as one stack."""
    finals = [report.final_state.amplitudes for group in batch for report in group]
    distributions = iter(())
    if finals:   # none if no theta of the batch has a selected branch
        states = dynamics.band(QuantumState(dynamics.basis, np.column_stack(finals)),
                               cfg, cfg.t_m)
        distributions = iter(site_probabilities(states, MEASURED_SITE).T)
    for group in batch:
        yield [(report, next(distributions)) for report in group]


# The readout laws of P theta, in the ideal limit: in either selected Protocol I
# branch the joint probability of reading out 0 (M) is 0.5 cos2 (0.5 sin2);
# after Protocol II, that of 0 (M) is shifted_sin2 (shifted_cos2).
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
