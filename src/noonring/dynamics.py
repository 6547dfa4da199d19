"""Exact unitary evolution and ideal projective site measurement.

Evolution uses the one-time eigendecomposition of the (time-independent)
Hamiltonian: exp(-i H t) |psi> = V exp(-i Lambda t) V+ |psi>.  No
time-stepping integrator is involved, so there are no step-size tolerances;
at sector dimensions <= ~2000 this is both exact and fast.

Every Hamiltonian the package builds is real symmetric, so V is real.  A
product of real V with a complex vector would make numpy upcast V to a
complex copy (twice the bytes of V) for each of the two products, plus a
copy for V.conj().  Instead the amplitudes are viewed as an (n, 2) real
array of their real and imaginary parts, and V.T and V each act on it in
one real matrix product; V itself is never copied.

Measurement of a site occupation is ideal and instantaneous: outcome r
occurs with the summed weight of all basis states carrying occupation r at
that site, and the post-measurement state is the renormalized projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import QuantumState, _check_site
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

    For real eigenvectors V, V.T and V are applied to the (real, imaginary)
    columns of the amplitudes in one real product each, so no complex or
    conjugated copy of V is built; complex V takes V (phases * V+ psi).
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration:g}")
    if hamiltonian.basis is not state.basis:
        raise ValueError("state and Hamiltonian use different bases")
    if duration == 0.0:
        return state.copy()
    eigenvalues, eigenvectors = hamiltonian.eigensystem()
    try:  # raise rather than hand NaN amplitudes to a measurement
        with np.errstate(over="raise", invalid="raise"):
            phases = np.exp(-1j * eigenvalues * duration)
    except FloatingPointError as exc:
        raise ArithmeticError(f"phases exp(-i E t) at t = {duration:g} s: {exc}") from None
    if np.isrealobj(eigenvectors):
        pairs = np.ascontiguousarray(state.amplitudes).view(np.float64).reshape(-1, 2)
        rotated = (eigenvectors.T @ pairs).view(complex).ravel() * phases
        amplitudes = (eigenvectors @ rotated.view(np.float64).reshape(-1, 2)).view(complex).ravel()
    else:
        amplitudes = eigenvectors @ (phases * (eigenvectors.conj().T @ state.amplitudes))
    return QuantumState(state.basis, amplitudes)


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
