"""Energy-band structure of the integrable model and effective-dynamics checks.

At J = 0 the integrable Hamiltonian is diagonal with energies

    E(M, P) = C - U (M - P)^2,      C = (U0 + U12) N^2/4 - U0 N/2,

degenerate within each split N = M + P of the total occupation between
the site pairs {1,3} and {2,4}.  Small J broadens each degenerate level
into a band of 2(M+1)(P+1) states (half that, (M+1)(P+1), for the
self-paired M = P split at even N).  Sweeps here subtract the constant
C so that spectra depend on (U, J) only, and report energies in units
of J.

Spectrum sweeps work in the normal-mode basis of the two site pairs,
s13 = (a1 + a3)/sqrt2, s24 = (a2 + a4)/sqrt2, d13 = (a1 - a3)/sqrt2 and
d24 = (a2 - a4)/sqrt2.  At integrable couplings

    H = U0/2 [M(M-1) + P(P-1)] + U12 M P - J (s13+ s24 + h.c.)
        + mu (s24+ d24 + h.c.) + nu (s13+ d13 + h.c.),

with M = n_s13 + n_d13 and P = n_s24 + n_d24, and the d-mode occupations
are the conserved charges: Q1 = n_d13 (conserved when nu = 0) and
Q2 = n_d24 (conserved when mu = 0).  H is therefore block-diagonal in
the conserved d-occupations, with blocks of size <= N + 1 at
mu = nu = 0 and <= (N+2)(N+1)/2 with one field on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve
from .fock import FockBasis, QuantumState, hop_matrix
from .model import (
    ModelParameters,
    build_effective_hamiltonian_charges,
    build_full_hamiltonian,
    derived_scales,
    diagonal_band_energy,
)


class BandsUnresolvedError(ValueError):
    """Raised when eigenvalue clusters do not separate into clean bands."""


def band_splits(n_total: int) -> list[tuple[int, int]]:
    """All (M, P) splits with M + P = N and M <= P, descending |M - P|.

    For U > 0 this is ascending band energy: E = C - U (M - P)^2.
    """
    splits = [(m, n_total - m) for m in range(n_total // 2 + 1)]
    return splits


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


def _hop_blocks(basis: FockBasis, mu: float, nu: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The U-independent (J = 1) part of H in the normal-mode basis, cut into blocks.

    `basis` is read as the occupations of (s13, s24, d13, d24).  Returns one
    (indices, hops) pair per block size: indices[k] are the basis positions of
    block k and hops[k] its hopping matrix, so every block of one size is
    diagonalized in one batched call.  Raises ArithmeticError if a field
    overflows an entry to inf or NaN.
    """
    hop = np.zeros((basis.size, basis.size))
    # The finiteness check below reports an overflow; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # -J s13+ s24 (J = 1), mu s24+ d24, nu s13+ d13; the transpose adds h.c.
        for coefficient, from_slot, to_slot in ((-1.0, 2, 1), (mu, 4, 2), (nu, 3, 1)):
            hop += coefficient * hop_matrix(basis, from_slot, to_slot)
        hop = hop + hop.T
    if not np.isfinite(hop).all():
        raise ArithmeticError(f"spectrum fields mu = {mu:g}, nu = {nu:g} give non-finite H")
    conserved = [column for column, field in ((2, nu), (3, mu)) if field == 0.0]
    key = np.zeros(basis.size, dtype=np.int64)
    for column in conserved:
        key = key * (basis.n_total + 1) + basis.occupations[:, column]
    _, block_of = np.unique(key, return_inverse=True)
    by_size: dict[int, list[np.ndarray]] = {}
    for block in range(block_of.max() + 1):
        indices = np.flatnonzero(block_of == block)
        by_size.setdefault(len(indices), []).append(indices)
    blocks = []
    for members in by_size.values():
        indices = np.array(members)
        blocks.append((indices, hop[indices[:, :, None], indices[:, None, :]]))
    return blocks


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
    the normal-mode basis (s13, s24, d13, d24) of the module docstring,

        H = U0/2 [M(M-1) + P(P-1)] + U12 M P - J (s13+ s24 + h.c.)
            + mu (s24+ d24 + h.c.) + nu (s13+ d13 + h.c.),

    where it is block-diagonal in the conserved d-occupations Q1 = n_d13
    (when nu = 0) and Q2 = n_d24 (when mu = 0).  The hopping blocks are cut
    once per sweep; at each grid point the diagonal is added and all
    blocks of one size go through one batched `eigvalsh`.  The dense
    site-basis H is never built.

    Raises ArithmeticError, before LAPACK, if an entry of H is inf or NaN.
    """
    u_over_j = np.asarray(u_over_j, dtype=float)
    rows = np.empty((len(u_over_j), basis.size))
    n_total = basis.n_total
    occ = basis.occupations.astype(float)
    m_occ, p_occ = occ[:, 0] + occ[:, 2], occ[:, 1] + occ[:, 3]
    same_pair = 0.5 * (m_occ * (m_occ - 1.0) + p_occ * (p_occ - 1.0))  # times U0
    cross_pair = m_occ * p_occ                                         # times U12
    blocks = _hop_blocks(basis, mu, nu)
    for i, ratio in enumerate(u_over_j):
        # Python floats overflow to inf without a warning; the check below reports it.
        params = ModelParameters.integrable_set(
            u=float(ratio), j=1.0, mu=mu, nu=nu, u0=u0)
        constant = (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = params.u0 * same_pair + params.u12 * cross_pair
        if not np.isfinite(diagonal).all():
            raise ArithmeticError(f"spectrum at U/J = {ratio:g} gives non-finite H")
        levels = []
        for indices, hops in blocks:
            matrices = hops.copy()
            size = indices.shape[1]
            matrices[:, np.arange(size), np.arange(size)] += diagonal[indices]
            levels.append(np.linalg.eigvalsh(matrices).ravel())
        rows[i] = np.sort(np.concatenate(levels)) - constant
    return SpectrumSweep(u_over_j=u_over_j, eigenvalues=rows, n_total=n_total, mu=mu, nu=nu)


@dataclass(frozen=True)
class BandAssignment:
    """Contiguous grouping of a sorted spectrum into (M, P) bands."""

    labels: tuple[tuple[int, int], ...]   # per band, ascending energy
    sizes: tuple[int, ...]
    boundaries: tuple[int, ...]           # cumulative offsets, len = n_bands + 1

    def band_of(self, eigenstate_index: int) -> tuple[int, int]:
        position = np.searchsorted(np.asarray(self.boundaries), eigenstate_index, side="right")
        if position == 0 or position > len(self.labels):
            raise IndexError(f"eigenstate index {eigenstate_index} out of range")
        return self.labels[position - 1]


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


def locate_band(params: ModelParameters, basis: FockBasis, occupations) -> tuple[int, int]:
    """Band label of a Fock state by nearest J=0 diagonal energy."""
    index = basis.index_of(tuple(occupations))
    occ = basis.occupations[index].astype(float)
    diagonal = 0.5 * params.u0 * float((occ * (occ - 1.0)).sum())
    pair_us = {
        (0, 1): params.u12, (0, 2): params.u13, (0, 3): params.u14,
        (1, 2): params.u23, (1, 3): params.u24, (2, 3): params.u34,
    }
    for (a, b), coupling in pair_us.items():
        diagonal += coupling * occ[a] * occ[b]
    best = None
    for m, p in band_splits(basis.n_total):
        distance = abs(diagonal - diagonal_band_energy(params, m, p))
        if best is None or distance < best[0]:
            best = (distance, (m, p))
    return best[1]


def effective_deficits(
    basis: FockBasis,
    m_occ: int,
    p_occ: int,
    params: ModelParameters,
    times: np.ndarray,
) -> np.ndarray:
    """1 - |<Phi_full(t)|Phi_eff(t)>| from |M,P,0,0> on a time grid."""
    times = np.asarray(times, dtype=float)
    derived = derived_scales(params, m_occ, p_occ)
    h_full = build_full_hamiltonian(params, basis)
    h_eff = build_effective_hamiltonian_charges(basis, basis.n_total, derived)
    initial = QuantumState.from_fock(basis, (m_occ, p_occ, 0, 0))
    deficits = np.empty(len(times))
    for i, t in enumerate(times):
        full_state = evolve(initial, h_full, t)
        eff_state = evolve(initial, h_eff, t)
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
