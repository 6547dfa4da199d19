"""Energy-band structure of the integrable model and effective-dynamics checks.

At J = 0 the integrable Hamiltonian is diagonal with energies

    E(M, P) = C - U (M - P)^2,      C = (U0 + U12) N^2/4 - U0 N/2,

degenerate within each split N = M + P of the total occupation between
the site pairs {1,3} and {2,4}.  Small J broadens each degenerate level
into a band of 2(M+1)(P+1) states (half that, (M+1)(P+1), for the
self-paired M = P split at even N).  Sweeps here subtract the constant
C so that spectra depend on (U, J) only, and report energies in units
of J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, QuantumState
from .model import (
    ModelParameters,
    _hop_blocks,
    build_mode_hamiltonian,
    derived_scales,
)
from .protocols import FullDynamics, IdealDynamics


class BandsUnresolvedError(ValueError):
    """Raised when eigenvalue clusters do not separate into clean bands."""


def band_splits(n_total: int) -> list[tuple[int, int]]:
    """All (M, P) splits with M + P = N and M <= P, descending |M - P|.

    For U > 0 this is ascending band energy: E = C - U (M - P)^2.
    """
    return [(m, n_total - m) for m in range(n_total // 2 + 1)]


def predicted_band_sizes(n_total: int) -> list[tuple[tuple[int, int], int]]:
    """Band sizes 2(M+1)(P+1), halved for the self-paired M = P split."""
    sizes = []
    for m, p in band_splits(n_total):
        size = (m + 1) * (p + 1) if m == p else 2 * (m + 1) * (p + 1)
        sizes.append(((m, p), size))
    return sizes


@dataclass(frozen=True)
class SpectrumSweep:
    """Sorted eigenvalues (in units of J, constant C removed) on a U/J grid."""

    u_over_j: np.ndarray
    eigenvalues: np.ndarray  # shape (len(u_over_j), dim)
    n_total: int
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if self.eigenvalues.shape[0] != len(self.u_over_j):
            raise ValueError("one eigenvalue row per grid point required")


def sweep_spectrum(
    basis: FockBasis,
    u_over_j: np.ndarray,
    mu: float = 0.0,
    nu: float = 0.0,
    u0: float = 0.0,
) -> SpectrumSweep:
    """Diagonalize the integrable H (plus optional fields) along a U/J grid.

    Works at fixed J = 1 so eigenvalues are already in units of J; the
    additive constant C is subtracted from every spectrum.  H is built in
    the normal-mode blocks of the conserved d-occupations (`noonring.model`):
    the hopping blocks are cut once per sweep, and at each grid point
    `build_mode_hamiltonian` adds the diagonal and all blocks of one size
    go through one batched `eigvalsh` (`HermitianOperator.eigenvalues`).
    The dense site-basis H is never built.

    Raises ArithmeticError, before LAPACK, if an entry of H is inf or NaN.
    """
    u_over_j = np.asarray(u_over_j, dtype=float)
    rows = np.empty((len(u_over_j), basis.size))
    n_total = basis.n_total
    hops = _hop_blocks(basis, mu, nu)
    for i, ratio in enumerate(u_over_j):
        # Python floats overflow to inf without a warning; the check below reports it.
        params = ModelParameters.integrable_set(
            u=float(ratio), j=1.0, mu=mu, nu=nu, u0=u0)
        constant = (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0
        if not np.isfinite([params.u12, constant]).all():
            raise ArithmeticError(f"spectrum at U/J = {ratio:g} gives non-finite H")
        rows[i] = build_mode_hamiltonian(params, basis, hops).eigenvalues() - constant
    return SpectrumSweep(u_over_j=u_over_j, eigenvalues=rows, n_total=n_total, mu=mu, nu=nu)


@dataclass(frozen=True)
class BandAssignment:
    """Contiguous grouping of a sorted spectrum into (M, P) bands."""

    labels: tuple[tuple[int, int], ...]   # per band, ascending energy
    sizes: tuple[int, ...]
    boundaries: tuple[int, ...]           # cumulative offsets, len = n_bands + 1


def assign_bands(
    eigenvalues: np.ndarray,
    n_total: int,
    gap_factor: float = 3.0,
) -> BandAssignment:
    """Group a sorted spectrum into the predicted (M, P) bands.

    The grouping is by predicted counts (ascending energy <-> descending
    |M - P| for U > 0); it is accepted only if every inter-band gap
    exceeds `gap_factor` times the larger adjacent intra-band spread.
    """
    eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
    # M ascending means |M - P| descending, i.e. E = C - U(M-P)^2 ascending
    # for U > 0, so the predicted list is already in energy order.
    predicted = predicted_band_sizes(n_total)
    total = sum(size for _, size in predicted)
    if total != len(eigenvalues):
        raise ValueError(
            f"spectrum has {len(eigenvalues)} levels but sector N={n_total} "
            f"predicts {total}"
        )
    boundaries = [0]
    for _, size in predicted:
        boundaries.append(boundaries[-1] + size)
    clusters = [eigenvalues[boundaries[i]:boundaries[i + 1]] for i in range(len(predicted))]
    spreads = [float(c[-1] - c[0]) for c in clusters]
    for i in range(len(clusters) - 1):
        gap = float(clusters[i + 1][0] - clusters[i][-1])
        limit = gap_factor * max(spreads[i], spreads[i + 1])
        if gap <= limit:
            raise BandsUnresolvedError(
                f"bands unresolved between {predicted[i][0]} and {predicted[i + 1][0]}: "
                f"gap {gap:g} <= {gap_factor:g} x spread {max(spreads[i], spreads[i + 1]):g}"
            )
    return BandAssignment(
        labels=tuple(label for label, _ in predicted),
        sizes=tuple(size for _, size in predicted),
        boundaries=tuple(boundaries),
    )


def effective_deficits(
    basis: FockBasis,
    m_occ: int,
    p_occ: int,
    params: ModelParameters,
    times: np.ndarray,
) -> np.ndarray:
    """1 - |<Phi_full(t)|Phi_eff(t)>| from |M,P,0,0> on a time grid.

    Both evolutions run in the normal-mode basis, so `params` must be
    ring-symmetric, U13 = U24 and U12 = U23 = U34 = U14 (ValueError
    otherwise); at U13 != U0 the full evolution includes that detuning.
    """
    times = np.asarray(times, dtype=float)
    derived = derived_scales(params, m_occ, p_occ)
    full, ideal = FullDynamics(basis), IdealDynamics(basis)
    initial = QuantumState.from_fock(basis, (m_occ, p_occ, 0, 0))
    deficits = np.empty(len(times))
    for i, t in enumerate(times):
        full_state = full.evolve(initial, [(params, t)])
        eff_state = ideal.evolve(initial, [(derived, t)])
        deficits[i] = 1.0 - abs(full_state.overlap(eff_state))
    return deficits


def compare_effective(
    basis: FockBasis,
    m_occ: int,
    p_occ: int,
    params: ModelParameters,
    times: np.ndarray,
) -> float:
    """Maximum full-vs-effective fidelity deficit over the time grid."""
    return float(np.max(effective_deficits(basis, m_occ, p_occ, params, times)))
