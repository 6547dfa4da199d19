"""Number-conserving Fock basis for four bosonic sites.

The simulator works in a single total-particle-number sector: every operator
of the model conserves N, so the full Fock space is never materialized.  For
N particles on 4 sites the sector dimension is binomial(N+3, 3), e.g. 816
for N = 15.

Sites are labelled 1..4 throughout the public API, matching the usual
plaquette convention |n1, n2, n3, n4>.
"""

from __future__ import annotations

import numpy as np

N_SITES = 4


def _check_site(site: int) -> int:
    if site not in (1, 2, 3, 4):
        raise ValueError(f"site must be in 1..4, got {site!r}")
    return site - 1  # internal 0-based column index


class FockBasis:
    """All occupation tuples (n1, n2, n3, n4) with fixed total N.

    States are stored in ascending lexicographic order, which fixes a
    deterministic index for every state across runs; `occupations[k, j]` is
    the occupation of site j+1 in basis state k.
    """

    def __init__(self, n_total: int):
        if n_total < 0:
            raise ValueError(f"total particle number must be >= 0, got {n_total}")
        self.n_total = n = int(n_total)
        # (n1, n2, n3) in C order ascend lexicographically; n4 = N - n1 - n2 - n3 follows.
        first = np.indices((n + 1,) * 3, dtype=np.int64).reshape(3, -1).T
        first = first[first.sum(axis=1) <= n]
        self.occupations = np.column_stack([first, n - first.sum(axis=1)])
        self.size = len(self.occupations)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return map(tuple, self.occupations.tolist())

    def index_of(self, state) -> int:
        """Position of an occupation tuple in the basis ordering."""
        key = tuple(map(int, state))
        if len(key) != N_SITES or min(key) < 0 or sum(key) != self.n_total:
            raise ValueError(f"state {key} is not in the N={self.n_total} sector")
        return _positions(self, *key[:3])

    def __repr__(self) -> str:
        return f"FockBasis(n_total={self.n_total}, size={self.size})"


def enumerate_basis(n_total: int) -> FockBasis:
    """Build the fixed-N sector basis (binomial(N+3, 3) states)."""
    return FockBasis(n_total)


class QuantumState:
    """Complex amplitude vector over a FockBasis, or a stack of K states as the
    columns of an (n, K) array.

    `noonring.dynamics` evolves, changes the basis of and measures each column
    of a stack.
    """

    def __init__(self, basis: FockBasis, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape[:1] != (basis.size,) or amplitudes.ndim > 2:
            raise ValueError(
                f"amplitude vector has shape {amplitudes.shape}, "
                f"expected ({basis.size},) or ({basis.size}, K)"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def from_fock(cls, basis: FockBasis, occupations) -> "QuantumState":
        """Basis state |n1,n2,n3,n4> as a unit vector."""
        amplitudes = np.zeros(basis.size, dtype=complex)
        amplitudes[basis.index_of(occupations)] = 1.0
        return cls(basis, amplitudes)

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
    n_f, n_t = occ[columns, f], occ[columns, t]
    return (_positions(basis, *moved[:, :3].T), columns,
            np.sqrt(np.prod([(n_f - k) * (n_t + 1.0 + k) for k in range(count)], axis=0)))


def _positions(basis: FockBasis, n1, n2, n3):
    """Basis positions of the states (n1, n2, n3, N - n1 - n2 - n3), ints or int arrays:
    in lexicographic order, C(N+3, 3) - C(r+3, 3) states have fewer than n1 bosons on
    site 1, C(r+2, 2) - C(s+2, 2) then fewer than n2 on site 2, and n3 fewer on site 3,
    where r = N - n1 and s = r - n2."""
    r = basis.n_total - n1
    s = r - n2
    return (basis.size - (r + 1) * (r + 2) * (r + 3) // 6
            + (r + 1) * (r + 2) // 2 - (s + 1) * (s + 2) // 2 + n3)
