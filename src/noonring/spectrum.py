"""Energy-band structure of the integrable model.

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

from .dynamics import STACK_BYTES
from .fock import FockBasis
from .model import ModelParameters, _band_constant, _hop_blocks, _mode_diagonal


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


def sweep_spectrum(
    basis: FockBasis,
    u_over_j: np.ndarray,
    mu: float = 0.0,
    nu: float = 0.0,
) -> np.ndarray:
    """Sorted eigenvalues of the integrable H (plus optional fields) along a U/J
    grid: shape (len(u_over_j), dim), one row per grid point.

    Works at fixed J = 1 and U0 = 0 so eigenvalues are already in units of J;
    the additive constant C is subtracted from every spectrum.  H is built in
    the normal-mode blocks of the conserved d-occupations (`noonring.model`):
    the hopping blocks are cut once per sweep.  Per stack of grid points (all
    40 default points at N = 15: the widest size stays within STACK_BYTES) and
    block size, each point's diagonal is added to its copy of the blocks and one
    `eigvalsh` takes them all.  LAPACK sees one matrix at a time, so the values
    are bit for bit those of a point-by-point sweep.  No dense H is built.

    Raises ArithmeticError, before LAPACK, if an entry of H is inf or NaN.
    """
    u_over_j = np.asarray(u_over_j, dtype=float)
    rows = np.empty((len(u_over_j), basis.size))
    n_total = basis.n_total
    hops = _hop_blocks(basis, mu, nu)
    points = max(1, STACK_BYTES // max(matrices.nbytes for _, matrices in hops))
    for start in range(0, len(u_over_j), points):
        diagonals, constants = [], []
        for ratio in u_over_j[start:start + points]:
            # Python floats overflow to inf without a warning; the check below reports it.
            params = ModelParameters.integrable_set(u=float(ratio), j=1.0, mu=mu, nu=nu)
            constant = _band_constant(params, n_total)
            diagonals.append(_mode_diagonal(params, basis))
            if not (np.isfinite([params.u12, constant]).all() and np.isfinite(diagonals[-1]).all()):
                raise ArithmeticError(f"spectrum at U/J = {ratio:g} gives non-finite H")
            constants.append(constant)
        diagonals = np.array(diagonals)
        values = []
        for indices, matrices in hops:
            size = indices.shape[1]
            stack = np.repeat(matrices[None], len(diagonals), axis=0)   # (points, blocks, size, size)
            stack[..., np.arange(size), np.arange(size)] += diagonals[:, indices]
            values.append(np.linalg.eigvalsh(stack).reshape(len(diagonals), -1))
        rows[start:start + points] = (np.sort(np.concatenate(values, axis=1), axis=1)
                                      - np.array(constants)[:, None])
    return rows


@dataclass(frozen=True)
class BandAssignment:
    """Contiguous grouping of a sorted spectrum into (M, P) bands."""

    labels: tuple[tuple[int, int], ...]   # per band, ascending energy
    sizes: tuple[int, ...]


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
    boundaries = [0]   # cumulative offsets, len = n_bands + 1
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
    )
