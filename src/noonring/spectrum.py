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

import math

import numpy as np

from .dynamics import STACK_BYTES
from .fock import FockBasis
from .model import ModelParameters, _ModeTerms, build_mode_hamiltonian


class BandsUnresolvedError(ValueError):
    """Raised when eigenvalue clusters do not separate into clean bands."""


def band_splits(n_total: int) -> list[tuple[int, int]]:
    """All (M, P) splits with M + P = N and M <= P, descending |M - P|.

    For U > 0 this is ascending band energy: E = C - U (M - P)^2.
    """
    return [(m, n_total - m) for m in range(n_total // 2 + 1)]


def predicted_band_sizes(n_total: int) -> list[tuple[tuple[int, int], int]]:
    """Band sizes 2(M+1)(P+1), halved for the self-paired M = P split."""
    return [((m, p), (m + 1) * (p + 1) * (1 if m == p else 2)) for m, p in band_splits(n_total)]


def _solved_blocks(terms: _ModeTerms, mu: float, nu: float) -> list[tuple]:
    """The blocks of H at U0 = U12 = 0, its hops at J = 1 and the fields, that a sweep
    diagonalizes, as (indices, hops, copies) per entry of its blocks: each block stands for
    `copies` blocks of equal eigenvalues.

    Without fields `build_mode_hamiltonian` holds each block (Q1, Q2) with Q1 < Q2 once,
    for itself and its ring-rotation image (Q2, Q1), on which H has the same matrix and
    the same diagonal: such an entry counts twice.  With a field on, every block is
    solved once.
    """
    at_zero = ModelParameters.integrable_set(u=0.0, j=1.0, mu=mu, nu=nu)
    blocks = build_mode_hamiltonian(at_zero, terms).blocks
    # That path (dsterf) squares off-diagonals, and one that underflows costs it accuracy
    # (a 1e-160 J field moved levels by 5e-5 J): an entry below eps of the largest, which
    # moves no level beyond LAPACK's own error, is set to 0.
    floor = np.finfo(float).eps * max(np.abs(hops).max(initial=0.0) for _, hops in blocks)
    for _, hops in blocks:
        hops[np.abs(hops) < floor] = 0.0
    # a pair's indices[..., 0] are its first block's states, whose diagonal the sweep adds
    return [(indices[..., 0] if indices.ndim > 2 else indices, hops,
             np.full(len(indices), indices.ndim - 1)) for indices, hops in blocks]


def sweep_spectrum(basis: FockBasis, u_over_j: np.ndarray, mu: float = 0.0,
                   nu: float = 0.0) -> np.ndarray:
    """Sorted eigenvalues of the integrable H (plus optional fields) along a U/J
    grid: shape (len(u_over_j), dim), one row per grid point.

    Works at fixed J = 1 and U0 = 0 so eigenvalues are already in units of J; the
    additive constant C is subtracted from every spectrum.  H is built in the
    normal-mode blocks of the conserved d-occupations (`noonring.model`), cut once
    per sweep (`_solved_blocks`); without fields each block pair (Q1, Q2), (Q2, Q1)
    is held, and solved, once.  Per stack of grid points (all 40 default points at N = 15: the
    widest size stays within STACK_BYTES) and block size, each point's diagonal is
    added to its copy of the blocks and one `eigvalsh` takes them all.  LAPACK sees
    one matrix at a time, so the values are bit for bit those of a point-by-point
    sweep over every block.  No dense H is built.

    Raises ArithmeticError, before LAPACK, if an entry of H is inf or NaN.
    """
    u_over_j = np.asarray(u_over_j, dtype=float)
    rows = np.empty((len(u_over_j), basis.size))
    n_total = basis.n_total
    terms = _ModeTerms(basis)
    blocks = _solved_blocks(terms, mu, nu)
    points = max(1, STACK_BYTES // max(matrices.nbytes for _, matrices, _ in blocks))
    for start in range(0, len(u_over_j), points):
        diagonals, constants = [], []
        for ratio in u_over_j[start:start + points]:
            # Python floats overflow to inf without a warning; the check below reports it.
            params = ModelParameters.integrable_set(u=float(ratio), j=1.0, mu=mu, nu=nu)
            constant = (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0
            diagonals.append(terms.diagonal(params))
            if not (np.isfinite([params.u12, constant]).all() and np.isfinite(diagonals[-1]).all()):
                raise ArithmeticError(f"spectrum at U/J = {ratio:g} gives non-finite H")
            constants.append(constant)
        diagonals, chunk, filled = np.array(diagonals), rows[start:start + points], 0
        for indices, matrices, copies in blocks:
            size = indices.shape[1]
            stack = np.repeat(matrices[None], len(diagonals), axis=0)   # (points, blocks, size, size)
            stack[..., np.arange(size), np.arange(size)] += diagonals[:, indices]
            values = np.repeat(np.linalg.eigvalsh(stack), copies, axis=1).reshape(len(chunk), -1)
            chunk[:, filled:filled + values.shape[1]] = values
            filled += values.shape[1]
        chunk.sort(axis=1)   # in place, as the rows' copies would raise the peak memory
        chunk -= np.array(constants)[:, None]
    return rows


def assign_bands(eigenvalues: np.ndarray, n_total: int, gap_factor: float = 3.0) -> float:
    """Check that a spectrum groups into the predicted (M, P) bands; return the smallest
    ratio of an inter-band gap to the larger adjacent intra-band spread (inf if none).

    The grouping is by predicted counts (ascending energy <-> descending |M - P|
    for U > 0); it is accepted only if every inter-band gap exceeds `gap_factor`
    times the larger adjacent intra-band spread.
    """
    eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
    # M ascending means |M - P| descending, i.e. E = C - U(M-P)^2 ascending
    # for U > 0, so the predicted list is already in energy order.
    predicted = predicted_band_sizes(n_total)
    sizes = np.array([size for _, size in predicted])
    if sizes.sum() != len(eigenvalues):
        raise ValueError(f"spectrum has {len(eigenvalues)} levels but sector N={n_total} "
                         f"predicts {sizes.sum()}")
    ends = np.cumsum(sizes)
    lows, highs = eigenvalues[ends - sizes], eigenvalues[ends - 1]
    gaps = lows[1:] - highs[:-1]
    spreads = np.maximum((highs - lows)[:-1], (highs - lows)[1:])   # the larger beside each gap
    unresolved = np.flatnonzero(gaps <= gap_factor * spreads)
    if unresolved.size:
        i = unresolved[0]
        raise BandsUnresolvedError(
            f"bands unresolved between {predicted[i][0]} and {predicted[i + 1][0]}: "
            f"gap {gaps[i]:g} <= {gap_factor:g} x spread {spreads[i]:g}"
        )
    with np.errstate(divide="ignore"):   # a gap with no spread beside it: inf
        return float(np.min(gaps / spreads, initial=math.inf))
