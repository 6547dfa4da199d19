"""Number-conserving Fock basis for four bosonic sites.

The simulator works in a single total-particle-number sector: every operator
of the model conserves N, so the full Fock space is never materialized.  For
N particles on 4 sites the sector dimension is binomial(N+3, 3), e.g. 816
for N = 15.

Sites are labelled 1..4 throughout the public API, matching the usual
plaquette convention |n1, n2, n3, n4>.
"""

from __future__ import annotations

from math import comb

import numpy as np

N_SITES = 4


def _check_site(site: int) -> int:
    if site not in (1, 2, 3, 4):
        raise ValueError(f"site must be in 1..4, got {site!r}")
    return site - 1  # internal 0-based column index


class FockBasis:
    """All occupation tuples (n1, n2, n3, n4) with fixed total N.

    States are stored in ascending lexicographic order, which fixes a
    deterministic index for every state across runs.
    """

    def __init__(self, n_total: int):
        if n_total < 0:
            raise ValueError(f"total particle number must be >= 0, got {n_total}")
        self.n_total = int(n_total)
        states = []
        for n1 in range(self.n_total + 1):
            for n2 in range(self.n_total - n1 + 1):
                for n3 in range(self.n_total - n1 - n2 + 1):
                    states.append((n1, n2, n3, self.n_total - n1 - n2 - n3))
        states.sort()
        self.states: tuple[tuple[int, int, int, int], ...] = tuple(states)
        self.index: dict[tuple[int, int, int, int], int] = {
            state: k for k, state in enumerate(self.states)
        }
        self.size = len(self.states)
        assert self.size == comb(self.n_total + 3, 3)
        # occupations[k, j] = occupation of site j+1 in basis state k
        self.occupations = np.array(self.states, dtype=np.int64)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.states)

    def index_of(self, state) -> int:
        """Position of an occupation tuple in the basis ordering."""
        key = tuple(int(n) for n in state)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(
                f"state {key} is not in the N={self.n_total} sector"
            ) from None

    def state_at(self, k: int) -> tuple[int, int, int, int]:
        return self.states[k]

    def __repr__(self) -> str:
        return f"FockBasis(n_total={self.n_total}, size={self.size})"


def enumerate_basis(n_total: int) -> FockBasis:
    """Build the fixed-N sector basis (binomial(N+3, 3) states)."""
    return FockBasis(n_total)


class QuantumState:
    """Complex amplitude vector over a FockBasis."""

    def __init__(self, basis: FockBasis, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (basis.size,):
            raise ValueError(
                f"amplitude vector has shape {amplitudes.shape}, "
                f"expected ({basis.size},)"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def from_fock(cls, basis: FockBasis, occupations) -> "QuantumState":
        """Basis state |n1,n2,n3,n4> as a unit vector."""
        amplitudes = np.zeros(basis.size, dtype=complex)
        amplitudes[basis.index_of(occupations)] = 1.0
        return cls(basis, amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return QuantumState(self.basis, self.amplitudes / n)

    def overlap(self, other: "QuantumState") -> complex:
        """Inner product <self|other>."""
        if other.basis is not self.basis and other.basis.n_total != self.basis.n_total:
            raise ValueError("states live in different particle-number sectors")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def number_expectation(self, site: int) -> float:
        """<N_site> = sum_k |amp_k|^2 n_site(k)."""
        j = _check_site(site)
        weights = np.abs(self.amplitudes) ** 2
        return float(weights @ self.basis.occupations[:, j])

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amplitudes.copy())

    def __repr__(self) -> str:
        return f"QuantumState(n_total={self.basis.n_total}, dim={self.basis.size})"


def hop_entries(basis: FockBasis, from_site: int, to_site: int,
                count: int = 1) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of the nonzero entries of (a_to^dagger)^count a_from^count.

    Moves `count` bosons from `from_site` to `to_site`; for one boson the matrix
    element between |..n_f.., ..n_t..> and the moved state is sqrt(n_f (n_t + 1)),
    for two sqrt(n_f (n_t + 1) (n_f - 1)(n_t + 2)).
    """
    f = _check_site(from_site)
    t = _check_site(to_site)
    if f == t:
        raise ValueError("from_site and to_site must differ")
    occ = basis.occupations
    columns = np.flatnonzero(occ[:, f] >= count)
    moved = occ[columns]
    moved[:, f] -= count
    moved[:, t] += count
    rows = np.array([basis.index[state] for state in map(tuple, moved.tolist())], dtype=np.int64)
    n_f, n_t = occ[columns, f], occ[columns, t]
    return rows, columns, np.sqrt(np.prod([(n_f - k) * (n_t + 1.0 + k) for k in range(count)], axis=0))

