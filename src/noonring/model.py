"""Four-site extended Bose-Hubbard Hamiltonian and its integrable structure.

Units: every coupling (U0, Uij, J, mu, nu) is stored as an angular frequency,
i.e. the value of X/hbar in rad/s, and times are in seconds.  hbar never
appears explicitly; exp(-i H t) is evaluated with H in rad/s and t in s.

The model

    H = (U0/2) sum_i N_i(N_i - 1) + sum_{i<j} U_ij N_i N_j
        - (J/2) [(a1+ + a3+)(a2 + a4) + (a1 + a3)(a2+ + a4+)]
        + mu (N2 - N4) + nu (N1 - N3)

has the couplings of a ring: U12 = U23 = U34 = U14 between neighbours and
U13 = U24 across the diagonals, so U0, U12 and U13 are its only interactions
(`ModelParameters`).  It is integrable (at mu = nu = 0) when U13 = U0,
acquiring the conserved charges

    2 Q1 = N1 + N3 - a1+ a3 - a1 a3+,   2 Q2 = N2 + N4 - a2+ a4 - a2 a4+.

In the resonant regime U|M-P| >> J (U = (U12 - U0)/4, M and P the
subsystem occupations N1+N3 and N2+N4) the dynamics within one energy band
is captured by the effective Hamiltonian

    H_eff = (N+1) Omega (Q1 + Q2) - 2 Omega Q1 Q2,

with Omega = J^2 / (4U((M-P)^2 - 1)); the half-period t_m = pi/(2 Omega)
drives the Fock state |M,P,0,0> into a four-branch NOON superposition.

In the normal modes s13, s24 = (a1 + a3)/sqrt2, (a2 + a4)/sqrt2 and
d13, d24 = (a1 - a3)/sqrt2, (a2 - a4)/sqrt2 of the site pairs,

    H = U0/2 [M(M-1) + P(P-1)] + U12 M P - J (s13+ s24 + h.c.)
        + mu (s24+ d24 + h.c.) + nu (s13+ d13 + h.c.),

with M = n_s13 + n_d13, P = n_s24 + n_d24, Q1 = n_d13 and Q2 = n_d24: H
splits into blocks of the conserved d-occupations (`build_mode_hamiltonian`)
and H_eff is diagonal.  Off the integrable point H gains (U13 - U0)(N1 N3 +
N2 N4), where per pair of sites N1 N3 = [n_s(n_s - 1) + n_d(n_d - 1) -
(s+^2 d^2 + d+^2 s^2)]/4 keeps only the parity of n_d, i.e. the 1<->3
(2<->4) swap; the parities then key the blocks.
Without fields such an H also commutes with the 90-degree ring rotation,
which pairs two of the four parity blocks and splits the other two in
halves.  The rotation is a fixed orthogonal change of the mode basis, T
(`_RingRotation`): in T's basis such an H is held in those smaller pieces,
one for both paired blocks, and a state enters T's basis at the start of a
step under it and leaves at the end (`noonring.dynamics.evolve`).
An H that acts only once, on one state (a pulse of `noonring.robustness`),
is held instead as one sparse matrix with its Gershgorin interval
(`_SparseHamiltonian`), and never diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fock import FockBasis, _positions, hop_entries

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParameters:
    """Couplings of the four-site ring, all in rad/s (X/hbar): on-site U0, neighbour
    U12 (= U23 = U34 = U14), diagonal U13 (= U24), tunneling J and the fields mu, nu."""

    u0: float
    u12: float
    u13: float
    j: float
    mu: float = 0.0
    nu: float = 0.0

    @classmethod
    def integrable_set(
        cls,
        u: float,
        j: float,
        mu: float = 0.0,
        nu: float = 0.0,
        u0: float = 0.0,
    ) -> "ModelParameters":
        """Integrable couplings (U13 = U0) with prescribed U = (U12 - U0)/4.

        In a sector of fixed N, U0 then adds only the constant U0 N(N-1)/2 to H
        (U12 = U0 + 4U), so the protocols and spectrum sweeps take u0 = 0.
        """
        return cls(u0=u0, u12=u0 + 4.0 * u, u13=u0, j=j, mu=mu, nu=nu)

    def with_fields(self, mu: float, nu: float) -> "ModelParameters":
        return replace(self, mu=mu, nu=nu)

    def coupling_u(self) -> float:
        """U = (U12 - U0)/4, the band-splitting scale."""
        return (self.u12 - self.u0) / 4.0

    def to_dict(self) -> dict:
        """Every pair coupling of the ring by name, with J, mu and nu."""
        return {
            "u0": self.u0, "u12": self.u12, "u13": self.u13, "u14": self.u12,
            "u23": self.u12, "u24": self.u13, "u34": self.u12, "j": self.j,
            "mu": self.mu, "nu": self.nu,
        }


class HermitianOperator:
    """Real symmetric matrix in a Fock sector, held in blocks, with a cached eigensystem.

    `blocks` holds one (indices, matrices) pair per block size: indices[k] are
    the basis positions of block k, matrices[k] the block, and `order` the
    positions block by block.  The blocks must cover the basis once; a dense
    matrix m is the one block (arange(n)[None], m[None]).  Every operator the
    package builds is real, so complex blocks are rejected: `evolve` relies on
    real eigenvectors.  With a `rotation` (`_RingRotation`) the positions are
    those of its basis, where an indices[k] of shape (size, 2) acts on two sets
    of amplitudes; `rows` counts each entry's positions.  The blocks are
    dropped once decomposed.
    """

    def __init__(self, basis: FockBasis, blocks, check: bool = True,
                 rotation: _RingRotation | None = None):
        self.basis, self.blocks, self.rotation = basis, blocks, rotation
        self.order = np.concatenate([indices.ravel() for indices, _ in blocks])
        self.rows = [indices.size for indices, _ in blocks]
        if self.order.size != basis.size:
            raise ValueError(f"blocks hold {self.order.size} states, the basis {basis.size}")
        if any(np.iscomplexobj(matrices) for _, matrices in blocks):
            raise ValueError("blocks must be real: the package builds real symmetric operators")
        self._eigensystem: tuple | None = None
        if check:
            self._require_finite()
            for _, matrices in blocks:
                deviation = float(np.max(np.abs(matrices - np.swapaxes(matrices, -1, -2))))
                if not deviation <= HERMITICITY_TOL * max(1.0, float(np.max(np.abs(matrices)))):
                    raise ValueError(f"matrix is not Hermitian (max deviation {deviation:g})")

    def _require_finite(self) -> None:
        """Raise ArithmeticError, before LAPACK sees it, if an entry is inf or NaN."""
        if not all(np.isfinite(matrices).all() for _, matrices in self.blocks):
            raise ArithmeticError(f"{self!r} has non-finite entries")

    def eigensystem(self) -> tuple:
        """Eigenvalues (ascending) and eigenvector columns, one pair per entry of `blocks`.

        Computed once, by one batched eigh per entry; the blocks go then.
        """
        if self._eigensystem is None:
            self._require_finite()
            self._eigensystem = tuple(np.linalg.eigh(matrices) for _, matrices in self.blocks)
            self.blocks = None
        return self._eigensystem

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.basis.size})"


class _RingRotation:
    """The 90-degree ring rotation R as a fixed orthogonal change T of the mode basis, in
    which H without fields off the integrable point splits into smaller pieces.

    R (sites 1 -> 2 -> 3 -> 4) maps s13 <-> s24, d13 -> d24, d24 -> -d13: R|x> = s_x |x'>
    for |x> = |a,b,c,d>, |x'> = |b,a,d,c>, s_x = (-1)^d.  It commutes with H without fields,
    keeps the (even, even) and (odd, odd) blocks of the (n_d13, n_d24) parities (R^2 = +1)
    and maps (even, odd) onto (odd, even).  T's states: the R = +1 and R = -1 halves of
    (even, even), (even, odd), and the halves of (odd, odd).  A half has the (|x> + r s_x
    |x'>)/sqrt2 of the pairs x < x' and the |x> that R fixes (at even N) with s_x = r.
    (even, odd) has each |x> followed by R|x>, on which H has the matrix of (even, odd):
    that block is stored once and acts on both sets of amplitudes as columns.  A state of
    T combines at most two mode states, so a state changes basis by two gathers.
    """

    def __init__(self, modes: FockBasis):
        occ = modes.occupations
        partner = _positions(modes, *occ[:, [1, 0, 3]].T)   # R|x> = sign[x] |partner[x]>
        sign = 1.0 - 2.0 * (occ[:, 3] % 2)
        self.parity = 2 * (occ[:, 2] % 2) + occ[:, 3] % 2   # 0 (even, even) ... 3 (odd, odd)
        # Per piece: its parity block, the gather of its matrix, and T's rows: two mode
        # states and their weights each.  Pieces of one size share an entry.
        entries = {}
        for parity in (0, 1, 3):
            block = np.flatnonzero(self.parity == parity)   # ascending, as in `_hop_blocks`
            if parity == 1:   # each |x>, then R|x> = s_x |x'>: one mode state per row
                states = np.repeat(np.column_stack([block, partner[block]]), 2).reshape(-1, 2)
                weights = np.column_stack([np.ones(block.size), sign[block]]).reshape(-1, 1)
                pieces = [((block.size, True), None, states, weights * [1.0, 0.0])]
            else:
                local, mates = np.arange(block.size), np.searchsorted(block, partner[block])
                pieces = []
                for r in (1.0, -1.0):
                    fixed = (mates == local) & (sign[block] == r)
                    members = np.flatnonzero((mates > local) | fixed)
                    rs, alone = r * sign[block[members]], mates[members] == members
                    d = np.where(alone, np.sqrt(0.5), 1.0)   # of the matrix
                    weight = np.where(alone, 1.0, np.sqrt(0.5))   # of T's rows
                    states = block[np.column_stack([members, mates[members]])]
                    weights = np.column_stack([weight, np.where(alone, 0.0, weight * rs)])
                    pieces.append(((members.size, False), (members, mates[members], rs, d),
                                   states, weights))
            for key, gather, states, weights in pieces:
                if key[0]:
                    entries.setdefault(key, []).append((parity, gather, states, weights))
        self._entries, start = [], 0   # T's rows, block by block
        for (size, paired), pieces in entries.items():
            indices = start + np.arange(len(pieces) * size * (1 + paired))
            self._entries.append((indices.reshape(len(pieces), size, *[2] * paired),
                                  [(parity, gather) for parity, gather, _, _ in pieces]))
            start += indices.size
        pieces = [piece for pieces in entries.values() for piece in pieces]
        sources = np.concatenate([states for _, _, states, _ in pieces])
        weights = np.concatenate([weights for _, _, _, weights in pieces])
        slots = np.argsort(sources.ravel(), kind="stable").reshape(-1, 2)   # two per mode state
        self._changes = (sources, weights), (slots // 2, weights.ravel()[slots])

    def change(self, amplitudes: np.ndarray, back: bool = False) -> np.ndarray:
        """T of mode amplitudes (one state or an (n, K) stack) in the order of T's blocks or,
        `back`, T^T of amplitudes in that order: two gathers of (real, imaginary) pairs."""
        sources, weights = self._changes[back]
        columns = amplitudes.reshape(len(sources), -1)
        first, second = (np.take(columns, sources[:, k], axis=0).view(np.float64) for k in (0, 1))
        first *= weights[:, :1]
        second *= weights[:, 1:]
        first += second
        return first.view(complex).reshape(amplitudes.shape)

    def blocks(self, parity_blocks: list) -> list:
        """H's pieces as `HermitianOperator` blocks, gathered from its blocks of `_hop_blocks`.

        As R commutes with H, H[x', y'] = s_x s_y H[x, y], so a half's matrix is
        d_x d_y (H[x, y] + r s_y H[x, y']), d = 1 for a pair and 1/sqrt2 for a fixed state.
        """
        by_parity = {int(self.parity[indices[k, 0]]): matrices[k]
                     for indices, matrices in parity_blocks for k in range(len(indices))}
        return [(indices, np.stack([_piece(by_parity[parity], gather)
                                    for parity, gather in pieces]))
                for indices, pieces in self._entries]


def _piece(block: np.ndarray, gather) -> np.ndarray:
    """The half of `block` that `gather` names (`_RingRotation.blocks`), or the block if None."""
    if gather is None:
        return block
    members, mates, rs, d = gather
    matrix = block[np.ix_(members, mates)]
    matrix *= rs
    matrix += block[np.ix_(members, members)]
    matrix *= d[:, None] * d
    return matrix


def _mode_entries(basis: FockBasis, mu: float, nu: float, j: float = 1.0,
                  detuning: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the off-diagonal part of H in the normal-mode basis.

    `basis` is read as the occupations of (s13, s24, d13, d24), and `detuning`
    is U13 - U0.  Each entry also stands for its h.c., and entries whose
    coupling is off are left out.  Raises ArithmeticError if a coupling
    overflows an entry to inf or NaN.
    """
    # -J s13+ s24, mu s24+ d24, nu s13+ d13, and the -detuning/4 s+^2 d^2 of each
    # pair.  No two of these hops connect the same pair of states, so no entry is a sum.
    terms = [((2, 1), -j), ((4, 2), mu), ((3, 1), nu)]
    if detuning != 0.0:
        terms += [((3, 1, 2), -0.25 * detuning), ((4, 2, 2), -0.25 * detuning)]
    entries = [hop_entries(basis, *slots) for slots, _ in terms]
    rows, columns, values = (np.concatenate(part) for part in zip(*entries))
    # The finiteness check below reports an overflow; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.repeat([value for _, value in terms], [len(e[0]) for e in entries]) * values
    if not np.isfinite(values).all():
        raise ArithmeticError(f"couplings mu = {mu:g}, nu = {nu:g}, J = {j:g}, "
                              f"U13 - U0 = {detuning:g} give non-finite H")
    on = values != 0.0   # every entry of a hop is nonzero unless its coupling is off
    return rows[on], columns[on], values[on]


def _mode_diagonal(params: ModelParameters, modes: FockBasis) -> np.ndarray:
    """The diagonal of H in the normal-mode basis (module docstring); inf or NaN where a
    coupling overflows it."""
    occ = modes.occupations.astype(float)
    m_occ, p_occ = occ[:, 0] + occ[:, 2], occ[:, 1] + occ[:, 3]
    detuning = params.u13 - params.u0
    # The callers report inf/NaN entries; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = (params.u0 * (0.5 * (m_occ * (m_occ - 1.0) + p_occ * (p_occ - 1.0)))
                    + params.u12 * (m_occ * p_occ))
        if detuning != 0.0:   # the n(n - 1)/4 of every mode, from D
            diagonal += 0.25 * detuning * (occ * (occ - 1.0)).sum(axis=1)
    return diagonal


def _hop_blocks(basis: FockBasis, mu: float, nu: float, j: float = 1.0,
                detuning: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """The off-diagonal part of H in the normal-mode basis (`_mode_entries`), cut into blocks.

    Returns one (indices, hops) pair per block size: indices[k] are the basis
    positions of block k and hops[k] its hopping matrix, so every block of one
    size is diagonalized in one batched call.  A pair whose field is off keeps
    its n_d as block key, or only the parity of n_d at nonzero detuning.  The
    entries go straight into the blocks; no n x n matrix is built.
    """
    rows, columns, values = _mode_entries(basis, mu, nu, j, detuning)
    key = np.zeros(basis.size, dtype=np.int64)
    for column, field in ((2, nu), (3, mu)):
        if field == 0.0:
            n_d = basis.occupations[:, column]
            key = key * (basis.n_total + 1) + (n_d if detuning == 0.0 else n_d % 2)
    _, block_of, sizes = np.unique(key, return_inverse=True, return_counts=True)
    by_block = np.argsort(block_of, kind="stable")    # states block by block, each ascending
    starts = np.cumsum(sizes) - sizes
    slot = np.empty(basis.size, dtype=np.int64)      # block of a state among those of its size
    position = np.empty(basis.size, dtype=np.int64)  # its row within that block
    blocks = []
    for size in dict.fromkeys(sizes):
        indices = by_block[starts[sizes == size][:, None] + np.arange(size)]
        slot[indices] = np.arange(len(indices))[:, None]
        position[indices] = np.arange(size)
        inside = sizes[block_of[rows]] == size
        r, c = rows[inside], columns[inside]
        hops = np.zeros((len(indices), size, size))
        hops[slot[r], position[r], position[c]] = values[inside]
        hops[slot[r], position[c], position[r]] = values[inside]
        blocks.append((indices, hops))
    return blocks


def build_mode_hamiltonian(params: ModelParameters, modes: FockBasis,
                           rotation: _RingRotation | None = None) -> HermitianOperator:
    """H in normal-mode blocks (module docstring).

    `modes` is read as (s13, s24, d13, d24).  Integrable couplings give blocks
    of the conserved d-occupations, of size <= (N+2)(N+1)/2; U13 != U0 gives
    blocks of their parities, and without fields the pieces of those in the
    basis of `rotation`, T of `modes` (`_RingRotation`, made here if None).
    """
    diagonal = _mode_diagonal(params, modes)
    blocks = _hop_blocks(modes, params.mu, params.nu, params.j, params.u13 - params.u0)
    for indices, matrices in blocks:
        matrices[:, np.arange(indices.shape[1]), np.arange(indices.shape[1])] += diagonal[indices]
    # Symmetric by construction; eigensystem() checks finiteness before LAPACK.
    if params.mu == params.nu == 0.0 and params.u13 != params.u0:
        rotation = _RingRotation(modes) if rotation is None else rotation
        return HermitianOperator(modes, rotation.blocks(blocks), check=False, rotation=rotation)
    return HermitianOperator(modes, blocks, check=False)


class _SparseHamiltonian:
    """Real symmetric H in a Fock sector as the CSR arrays (`data`, `indices`, `indptr`) of
    H - `center`, where [center - radius, center + radius] is H's Gershgorin interval,
    which holds its spectrum.  Every row stores its diagonal entry, so none is empty.
    It has no eigensystem: `noonring.dynamics.evolve` applies exp(-i H t) to states
    directly.

    Built from H's diagonal and its entries (rows, columns, values) on one side of it,
    each of which also stands for its transpose; no two may share a position.
    """

    def __init__(self, basis: FockBasis, diagonal: np.ndarray, rows: np.ndarray,
                 columns: np.ndarray, values: np.ndarray):
        states = np.arange(basis.size)
        rows, columns = np.concatenate([rows, columns, states]), np.concatenate([columns, rows, states])
        values = np.concatenate([values, values])
        reach = np.bincount(rows[:values.size], weights=np.abs(values), minlength=basis.size)
        # An interval beyond the float range makes center and radius inf or NaN, which
        # `evolve` reports; numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = float(np.min(diagonal - reach)), float(np.max(diagonal + reach))
            self.center, self.radius = 0.5 * low + 0.5 * high, 0.5 * high - 0.5 * low
            entries = np.concatenate([values, diagonal - self.center])
        by_row = np.argsort(rows, kind="stable")
        self.basis, self.data, self.indices = basis, entries[by_row], columns[by_row]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=basis.size))])

    def product(self, vectors: np.ndarray) -> np.ndarray:
        """(H - center) @ vectors, for (n, k) vectors."""
        terms = np.take(vectors, self.indices, axis=0)   # faster than vectors[self.indices]
        terms *= self.data[:, None]
        return np.add.reduceat(terms, self.indptr[:-1], axis=0)


def _sparse_mode_hamiltonian(params: ModelParameters, modes: FockBasis) -> _SparseHamiltonian:
    """H in the normal-mode basis, as one CSR matrix.

    Built from the entries `build_mode_hamiltonian` cuts into blocks; no block
    and no n x n array is allocated.  Raises ArithmeticError if an entry of H
    is inf or NaN.
    """
    diagonal = _mode_diagonal(params, modes)
    if not np.isfinite(diagonal).all():
        raise ArithmeticError(f"couplings U0 = {params.u0:g}, U12 = {params.u12:g}, "
                              f"U13 = {params.u13:g} give non-finite H")
    return _SparseHamiltonian(modes, diagonal, *_mode_entries(
        modes, params.mu, params.nu, params.j, params.u13 - params.u0))


def _band_constant(params: ModelParameters, n_total: int) -> float:
    """C = (U0 + U12) N^2 / 4 - U0 N / 2, the J = 0 energy shared by every band of the sector."""
    return (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0

