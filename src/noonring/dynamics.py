"""Exact unitary evolution, the normal-mode change of basis, and ideal site measurement.

Evolution uses the one-time eigendecomposition of the (time-independent)
Hamiltonian, exp(-i H t) |psi> = V exp(-i Lambda t) V+ |psi>, block by
block; no time-stepping integrator is involved.
Every Hamiltonian the package builds is real symmetric, so V is real, and
V.T and V act on the amplitudes viewed as real (real, imaginary) pairs:
numpy would otherwise make a complex copy of V for each product.

`NormalModes` carries states between the site basis and the normal-mode
basis of `noonring.model`, where the integrable H splits into small blocks.
The mode basis is a FockBasis of its own, so `evolve` rejects a state in
the wrong basis.

Measurement of a site occupation is ideal and instantaneous: outcome r
occurs with the summed weight of all basis states carrying occupation r at
that site, and the post-measurement state is the renormalized projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import FockBasis, QuantumState, _check_site
from .model import HermitianOperator


@dataclass(frozen=True)
class MeasurementRecord:
    """Projective occupation measurement at one site."""

    site: int
    outcome: int
    probability: float
    post_state: QuantumState


def evolve(state: QuantumState, hamiltonian: HermitianOperator, duration: float) -> QuantumState:
    """Apply exp(-i H t), t = duration in seconds, through the cached eigendecomposition of H.

    V+ and V act on all blocks of one size in one batched product each, with
    the phases exp(-i E t) in between; real V is never copied (see above).
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration:g}")
    if hamiltonian.basis is not state.basis:
        raise ValueError("state and Hamiltonian use different bases")
    if duration == 0.0:
        return state.copy()
    parts = hamiltonian.eigensystem()
    energies = np.concatenate([values.ravel() for values, _ in parts])
    try:  # raise rather than hand NaN amplitudes to a measurement
        with np.errstate(over="raise", invalid="raise"):
            phases = np.exp(-1j * energies * duration)
    except FloatingPointError as exc:
        raise ArithmeticError(f"phases exp(-i E t) at t = {duration:g} s: {exc}") from None
    blocked = state.amplitudes[hamiltonian.order]   # block by block, like the eigenvalues
    start = 0
    for values, vectors in parts:
        block = blocked[start:start + values.size].reshape(*values.shape, 1)  # views
        phase = phases[start:start + values.size].reshape(*values.shape, 1)
        start += values.size
        if np.isrealobj(vectors):   # V.T and V act on the (real, imaginary) pairs
            rotated = np.swapaxes(vectors, -1, -2) @ block.view(np.float64)
            rotated.view(complex)[...] *= phase
            np.matmul(vectors, rotated, out=block.view(np.float64))
        else:
            block[...] = vectors @ (phase * (np.swapaxes(vectors, -1, -2).conj() @ block))
    amplitudes = np.empty_like(blocked)
    amplitudes[hamiltonian.order] = blocked
    return QuantumState(state.basis, amplitudes)


def _beam_splitter(n: int) -> np.ndarray:
    """<n_a, n - n_a | k_s, n - k_s> (rows n_a, columns k_s), s, d = (a + b, a - b)/sqrt2.

    Column k_s is the eigenvector of a+ b + b+ a = n_s - n_d for 2 k_s - n, signed
    by its entry at n_a = n: <n, 0| (s+)^k (d+)^(n-k) |0> > 0 for this d.
    """
    hop = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1.0))  # <n_a + 1| a+ b |n_a>
    vectors = eigh_tridiagonal(np.zeros(n + 1), hop)[1]
    return vectors * np.sign(vectors[-1])


class NormalModes:
    """The change of basis between site and normal-mode occupations.

    `basis` is a FockBasis of its own, read as (s13, s24, d13, d24).  The (M, P)
    block is the Kronecker product of the pairs' beam splitters; its site states
    (n1, n2, M - n1, P - n2) and mode states (k13, k24, M - k13, P - k24) sit at
    the same positions of the two bases, so one index array serves both.
    """

    def __init__(self, sites: FockBasis):
        self.sites, self.basis = sites, FockBasis(sites.n_total)
        splitters = [_beam_splitter(n) for n in range(sites.n_total + 1)]
        by_size: dict[int, list] = {}
        for m_occ, splitter in enumerate(splitters):
            p_occ = sites.n_total - m_occ
            indices = [sites.index[(a, b, m_occ - a, p_occ - b)]
                       for a in range(m_occ + 1) for b in range(p_occ + 1)]
            by_size.setdefault(len(indices), []).append(
                (indices, np.kron(splitter, splitters[p_occ])))
        self.blocks = [tuple(map(np.array, zip(*group))) for group in by_size.values()]

    def change(self, state: QuantumState, target: FockBasis) -> QuantumState:
        """`state` in `target`: `basis` from the site basis, or `sites` from the mode basis."""
        to_modes = target is self.basis
        if state.basis is not (self.sites if to_modes else self.basis):
            raise ValueError("state is not in the basis this change starts from")
        amplitudes = np.empty(target.size, dtype=complex)
        for indices, blocks in self.blocks:   # real blocks on (real, imaginary) pairs
            pairs = state.amplitudes[indices][..., None].view(np.float64)
            blocks = np.swapaxes(blocks, -1, -2) if to_modes else blocks
            amplitudes[indices] = (blocks @ pairs).view(complex)[..., 0]
        return QuantumState(target, amplitudes)

    def evolve_in_modes(self, state: QuantumState, steps) -> QuantumState:
        """Site-basis `state` after each (mode-basis H, duration) step in turn."""
        state = self.change(state, self.basis)
        for hamiltonian, duration in steps:
            state = evolve(state, hamiltonian, duration)
        return self.change(state, self.sites)


def measure_distribution(state: QuantumState, site: int) -> list[tuple[int, float]]:
    """Occupation distribution at a site: [(outcome r, probability), ...].

    Only outcomes with nonzero probability are listed, in ascending r.
    """
    j = _check_site(site)
    weights = np.abs(state.amplitudes) ** 2
    occupations = state.basis.occupations[:, j]
    probabilities = np.bincount(
        occupations, weights=weights, minlength=state.basis.n_total + 1
    )
    return [(int(r), float(p)) for r, p in enumerate(probabilities) if p > 0.0]


def project(state: QuantumState, site: int, outcome: int) -> MeasurementRecord:
    """Project onto the outcome subspace of a site occupation measurement."""
    j = _check_site(site)
    mask = state.basis.occupations[:, j] == outcome
    amplitudes = np.where(mask, state.amplitudes, 0.0)
    probability = float(np.sum(np.abs(amplitudes) ** 2))
    if probability <= 0.0:
        raise ValueError(
            f"impossible outcome: occupation {outcome} at site {site} has zero probability"
        )
    post = QuantumState(state.basis, amplitudes / np.sqrt(probability))
    return MeasurementRecord(site=site, outcome=int(outcome), probability=probability, post_state=post)
