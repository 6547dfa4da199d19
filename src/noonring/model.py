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
and H_eff is diagonal.  The 90-degree ring rotation R (sites 1 -> 2 -> 3 ->
4) acts on the mode occupations as R|a,b,c,d> = (-1)^d |b,a,d,c>.  It maps
the mu field onto the nu field with the opposite sign, R H(mu) R^T =
H(nu = -mu), so exp(-i H(nu = -s) t) = R exp(-i H(mu = s) t) R^T: a state
under a nu field alone is rotated, evolved under the mu field and rotated
back (`_ModeTerms.rotate`, a signed permutation), and the protocols build no
H with nu (`noonring.protocols.FullDynamics.nu_segment`).  Without fields R
maps block (Q1, Q2) onto (Q2, Q1), on which H has the same matrix, so such a
pair is held once (`_hop_blocks`).
Off the integrable point H gains (U13 - U0)(N1 N3 + N2 N4), where per pair
of sites N1 N3 = [n_s(n_s - 1) + n_d(n_d - 1) - (s+^2 d^2 + d+^2 s^2)]/4
keeps only the parity of n_d, i.e. the 1<->3 (2<->4) swap; the parities
then key the blocks.  Without fields such an H also commutes with R, which
pairs two of the four parity blocks and splits the other two in halves.  At
the odd N the protocols need, the rotation is a fixed orthogonal change of
the mode basis, T (`_RingRotation`): in T's basis such an H is held in those
smaller pieces, one for both paired blocks, and a state enters T's basis at
the start of a step under it and leaves at the end (`noonring.dynamics.evolve`).
Each H is scaled from one record of its basis's fixed terms (`_ModeTerms`),
which also holds R's partner states and signs, into one checked list of its
entries, and from there straight into its blocks or pieces (`_scatter`).
An H that acts only once, on one state (a pulse of `noonring.robustness`),
is held instead as one sparse matrix with its Gershgorin interval
(`_SparseHamiltonian`), and never diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fock import FockBasis, QuantumState, _positions, hop_entries

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

    `blocks` holds one (indices, matrices) entry per block size (pairs, below,
    apart): indices[k] are the basis positions of block k, matrices[k] the
    block, and `order` the positions block by block.  The blocks must hold each
    basis position once; a dense matrix m is the one block (arange(n)[None], m[None]).
    Every operator the package builds is real, so complex blocks are rejected:
    `evolve` relies on real eigenvectors.  An indices[k] of shape (size, 2)
    holds two sets of positions on which the block has the same matrix, so it
    acts on two sets of amplitudes: a block and its ring-rotation image
    (`_hop_blocks`, and the (even, odd) block of `_RingRotation`).  With a
    `rotation` the positions are those of its basis.  `rows` counts each
    entry's positions.  The blocks are dropped once decomposed.
    """

    def __init__(self, basis: FockBasis, blocks, check: bool = True,
                 rotation: _RingRotation | None = None):
        self.basis, self.blocks, self.rotation = basis, blocks, rotation
        self.order = np.concatenate([indices.ravel() for indices, _ in blocks])
        self.rows = [indices.size for indices, _ in blocks]
        if self.order.size != basis.size:
            raise ValueError(f"blocks hold {self.order.size} states, the basis {basis.size}")
        if not np.array_equal(np.sort(self.order), np.arange(basis.size)):
            raise ValueError("blocks must hold each basis position once")
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

        Computed once, by one batched eigh per entry; `blocks` goes then, and each
        entry's matrices once its eigh returns, if nothing else holds them.
        """
        if self._eigensystem is None:
            self._require_finite()
            blocks, self.blocks, parts = list(self.blocks), None, []
            for k in range(len(blocks)):   # each entry's matrices go once its eigh returns
                (_, matrices), blocks[k] = blocks[k], None
                parts.append(np.linalg.eigh(matrices))
            self._eigensystem = tuple(parts)
        return self._eigensystem

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.basis.size})"


class _RingRotation:
    """The 90-degree ring rotation R as a fixed orthogonal change T of the mode basis at odd
    N, in which H without fields off the integrable point splits into smaller pieces.

    R (sites 1 -> 2 -> 3 -> 4) maps s13 <-> s24, d13 -> d24, d24 -> -d13: R|x> = s_x |x'>
    for |x> = |a,b,c,d>, |x'> = |b,a,d,c>, s_x = (-1)^d (`_ModeTerms.partner` and `sign`,
    from which T is made); x' = x needs a = b and c = d, so at odd N R fixes no state
    (even N raises ValueError).  R commutes with H without fields, keeps the (even, even)
    and (odd, odd) blocks of the (n_d13, n_d24) parities (R^2 = +1) and maps (even, odd)
    onto (odd, even).  T's states: the R = +1 and R = -1 halves of (even, even), (even,
    odd), and the halves of (odd, odd).  A half has the (|x> + r s_x |x'>)/sqrt2 of the
    pairs x < x'.  (even, odd) has each |x> followed by |x'>, on which H has the matrix of
    (even, odd), as H[x', y'] = s_x s_y H[x, y] and s_x = -1 there: that block is stored
    once and acts on both sets of amplitudes as columns.  A state of T combines at most
    two mode states, so a state changes basis by two gathers.
    """

    def __init__(self, terms: _ModeTerms):
        occ, n, partner, sign = terms.basis.occupations, terms.basis.size, terms.partner, terms.sign
        if terms.basis.n_total % 2 == 0:
            raise ValueError(f"the ring rotation's T needs odd N, not N = {terms.basis.n_total}")
        parity = 2 * (occ[:, 2] % 2) + occ[:, 3] % 2   # 0 (even, even) ... 3 (odd, odd)
        # Per piece: its layer (below), its states x, their x' and r s_x, and T's rows: two
        # mode states and their weights each.  Pieces of one size share an entry.
        entries = {}
        for k, layer, r in ((0, 0, 1.0), (0, 1, -1.0), (1, 0, None), (3, 0, 1.0), (3, 1, -1.0)):
            block = np.flatnonzero(parity == k)   # ascending
            if r is None:   # each |x>, then |x'>: one mode state per row
                x, rs = block, np.ones(block.size)
                states = np.repeat(np.column_stack([x, partner[x]]), 2).reshape(-1, 2)
                weights = np.tile([1.0, 0.0], (states.shape[0], 1))
            else:
                x = block[partner[block] > block]
                rs, states = r * sign[x], np.column_stack([x, partner[x]])
                weights = np.sqrt(0.5) * np.column_stack([np.ones(x.size), rs])
            if x.size:
                entries.setdefault((x.size, r is None), []).append(
                    (layer, x, partner[x], rs, states, weights))
        # As R commutes with H, H[x', y'] = s_x s_y H[x, y], so a piece is H[x, y] +
        # r s_y H[x, y']: `layout` has a layer per r (+1 with (even, odd)), each with a role
        # for y and one for y', times r s_y.  The x' of (even, odd) lie in (odd, even),
        # which H does not reach from there.
        starts, places = np.full((2, n), -1), np.full((2, 2, n), -1)
        signs, blocks, offsets, rows = np.ones((2, 2, n)), [], [0], []
        start = 0   # of T's rows, block by block
        for (size, paired), pieces in entries.items():
            indices = start + np.arange(len(pieces) * size * (1 + paired))
            blocks.append(indices.reshape(len(pieces), size, *[2] * paired))
            start, offset = start + indices.size, offsets[-1]
            for layer, x, mates, rs, *piece_rows in pieces:
                starts[layer, x] = offset + size * np.arange(size)
                places[layer, 0, x] = places[layer, 1, mates] = np.arange(size)
                signs[layer, 1, mates] = rs
                offset += size * size
                rows.append(piece_rows)
            offsets.append(offset)
        self.layout = blocks, offsets, starts, places, signs
        sources, weights = (np.concatenate(part) for part in zip(*rows))
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


class _ModeTerms:
    """H's fixed terms in one normal-mode basis (s13, s24, d13, d24), from which every H of
    that basis is scaled: the unit diagonals of U0, U12 and (U13 - U0)/4, the entries of
    each hop at unit coupling, enumerated on first use and kept, the ring rotation R as
    R|x> = sign[x] |partner[x]>, and the basis's `_RingRotation` (odd N), made on first use.
    """

    def __init__(self, modes: FockBasis):
        self.basis, self._hops = modes, {}
        occ = modes.occupations   # R|x> = sign[x] |partner[x]> (`_RingRotation`)
        self.partner = _positions(modes, *occ[:, [1, 0, 3]].T)
        self.sign = 1.0 - 2.0 * (occ[:, 3] % 2)
        occ = occ.astype(float)
        m_occ, p_occ = occ[:, 0] + occ[:, 2], occ[:, 1] + occ[:, 3]
        self._units = (0.5 * (m_occ * (m_occ - 1.0) + p_occ * (p_occ - 1.0)), m_occ * p_occ,
                       (occ * (occ - 1.0)).sum(axis=1))   # the n(n - 1) of every mode, from D

    @cached_property
    def rotation(self) -> _RingRotation:
        return _RingRotation(self)

    def rotate(self, state: QuantumState, back: bool = False) -> QuantumState:
        """R of a state (or (n, K) stack) of this basis or, `back`, R^T: a signed
        permutation, R psi = sign[partner] * psi[partner], R^T psi = sign * psi[partner]."""
        if state.basis is not self.basis:
            raise ValueError("only a state of the mode basis rotates")
        signs = self.sign if back else self.sign[self.partner]
        columns = state.amplitudes.reshape(self.basis.size, -1)
        rotated = signs[:, None] * columns[self.partner]
        return QuantumState(self.basis, rotated.reshape(state.amplitudes.shape))

    def diagonal(self, params: ModelParameters) -> np.ndarray:
        """The diagonal of H at `params` (module docstring); inf or NaN where a coupling
        overflows it."""
        pairs, product, modes = self._units
        # The callers report inf/NaN entries; numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = params.u0 * pairs + params.u12 * product
            if params.u13 != params.u0:
                diagonal += 0.25 * (params.u13 - params.u0) * modes
        return diagonal

    def entries(self, params: ModelParameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry of H at `params`, values[k] = H[sources[k], targets[k]]: each
        off-diagonal entry on both sides of the diagonal, then the diagonal, state by state.

        A hop whose coupling is off is left out.  Raises ArithmeticError if a coupling
        overflows an entry to inf or NaN.
        """
        detuning = params.u13 - params.u0
        # -J s13+ s24, mu s24+ d24, nu s13+ d13, and the -detuning/4 s+^2 d^2 of each pair
        # (`hop_entries`' sites and count).  No two connect the same pair of states.
        hops = ((2, 1), (4, 2), (3, 1), (3, 1, 2), (4, 2, 2))
        couplings = (-params.j, params.mu, params.nu, -0.25 * detuning, -0.25 * detuning)
        parts = []   # (rows, columns, values) of each hop that is on
        # The finiteness check below reports an overflow; numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for slots, coupling in zip(hops, couplings):
                if coupling != 0.0:
                    if slots not in self._hops:
                        self._hops[slots] = hop_entries(self.basis, *slots)
                    rows, columns, units = self._hops[slots]
                    parts.append((rows, columns, coupling * units))
        rows, columns, values = ([part[k] for part in parts] for k in range(3))
        states = np.arange(self.basis.size)
        sources = np.concatenate([*rows, *columns, states])
        targets = np.concatenate([*columns, *rows, states])
        values = np.concatenate([*values, *values, self.diagonal(params)])
        if not np.isfinite(values).all():
            raise ArithmeticError(f"{params} gives non-finite H")
        return sources, targets, values


def _scatter(layout: tuple, sources: np.ndarray, targets: np.ndarray, values: np.ndarray) -> list:
    """H as `HermitianOperator` blocks, from its entries values[k] = H[sources[k], targets[k]]
    (`_ModeTerms.entries`); no n x n array.

    `layout` (`_hop_blocks`, `_RingRotation`) is (indices, offsets, starts, places, signs):
    each entry's indices and its start in one flat array of all blocks; per layer, the
    start of state x's row, starts[x], and per role, the column places[y] (-1: none) where
    H[x, y] adds, times signs[y].
    """
    blocks, offsets, starts, places, signs = layout
    # Each entry is an array of its own, so `HermitianOperator.eigensystem` can drop it
    # alone; it holds the flat positions offsets[k] to offsets[k + 1].
    parts = [np.zeros(end - offset) for offset, end in zip(offsets, offsets[1:])]
    for start, roles, factors in zip(starts, places, signs):
        start = start[sources]
        for place, factor in zip(roles[:, targets], factors):
            keep = np.flatnonzero((start >= 0) & (place >= 0))
            positions, terms = start[keep] + place[keep], factor[targets[keep]] * values[keep]
            for part, offset in zip(parts, offsets):
                inside = (positions >= offset) & (positions < offset + part.size)
                part[positions[inside] - offset] += terms[inside]
    return [(indices, part.reshape(*indices.shape[:2], -1)) for indices, part in zip(blocks, parts)]


def _hop_blocks(terms: _ModeTerms, params: ModelParameters) -> tuple:
    """The `_scatter` layout of the blocks that H's hops at `params` leave apart.

    One entry per block size, whose indices[k] are the basis positions of block k,
    so every block of one size is diagonalized in one batched call.  A pair whose
    field is off keeps its n_d as block key, or only the parity of n_d at U13 != U0.
    Integrable H without fields commutes with the ring rotation R, which maps block
    (Q1, Q2) onto (Q2, Q1) with the sign (-1)^Q2, constant over the block: H has the
    same matrix on the images of a block's states.  So a block with Q1 < Q2 and the
    images of its states, row by row, are one indices[k] of shape (size, 2), in an
    entry of their own beside that of the Q1 = Q2 blocks of their size.
    """
    basis = terms.basis
    key = np.zeros(basis.size, dtype=np.int64)
    for column, field in ((2, params.nu), (3, params.mu)):
        if field == 0.0:
            n_d = basis.occupations[:, column]
            key = key * (basis.n_total + 1) + (n_d if params.u13 == params.u0 else n_d % 2)
    _, block_of, sizes = np.unique(key, return_inverse=True, return_counts=True)
    by_block = np.argsort(block_of, kind="stable")    # states block by block, each ascending
    first = np.cumsum(sizes) - sizes
    pairing = np.zeros_like(sizes)   # per block: 1, 0, -1 for Q1 <, =, > Q2 if R is kept
    if params.u13 == params.u0 and params.mu == params.nu == 0.0:
        q1, q2 = basis.occupations[by_block[first], 2:].T
        pairing = np.sign(q2 - q1)
    blocks, offsets, (starts, places) = [], [0], np.full((2, basis.size), -1)
    for size, paired in dict.fromkeys(zip(sizes.tolist(), pairing.tolist())):
        if paired < 0:   # the images of a paired entry: no row of their own
            continue
        states = by_block[first[(sizes == size) & (pairing == paired)][:, None] + np.arange(size)]
        starts[states] = offsets[-1] + size * np.arange(states.size).reshape(-1, size)
        places[states] = np.arange(size)
        offsets.append(offsets[-1] + size * states.size)
        blocks.append(np.stack([states, terms.partner[states]], axis=-1) if paired else states)
    return blocks, offsets, starts[None], places[None, None], np.ones((1, 1, basis.size))


def build_mode_hamiltonian(params: ModelParameters, terms: _ModeTerms) -> HermitianOperator:
    """H in normal-mode blocks (module docstring), scaled from the `terms` of its basis.

    Integrable couplings give blocks of the conserved d-occupations, of size
    <= (N+2)(N+1)/2; U13 != U0 gives blocks of their parities, and without
    fields at odd N the pieces of those in the basis of the ring rotation T
    (`_RingRotation`), into which H's entries go straight.
    """
    rotation = None if (params.mu or params.nu or params.u13 == params.u0
                        or terms.basis.n_total % 2 == 0) else terms.rotation
    layout = _hop_blocks(terms, params) if rotation is None else rotation.layout
    # Finite and symmetric by construction (`_ModeTerms.entries`).
    blocks = _scatter(layout, *terms.entries(params))
    return HermitianOperator(terms.basis, blocks, check=False, rotation=rotation)


class _SparseHamiltonian:
    """Real symmetric H in a Fock sector as the CSR arrays (`data`, `indices`, `indptr`) of
    H - `center`, where [center - radius, center + radius] is H's Gershgorin interval,
    which holds its spectrum.  Every row stores its diagonal entry, so none is empty.
    It has no eigensystem: `noonring.dynamics.evolve` applies exp(-i H t) to states
    directly.

    Built from H's entries values[k] = H[sources[k], targets[k]] as `_ModeTerms.entries`
    lists them: the off-diagonal ones, then the diagonal, state by state.
    """

    def __init__(self, basis: FockBasis, sources: np.ndarray, targets: np.ndarray,
                 values: np.ndarray):
        values, diagonal = values[:-basis.size], values[-basis.size:]
        reach = np.bincount(sources[:values.size], weights=np.abs(values), minlength=basis.size)
        # An interval beyond the float range makes center and radius inf or NaN, which
        # `evolve` reports; numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = float(np.min(diagonal - reach)), float(np.max(diagonal + reach))
            self.center, self.radius = 0.5 * low + 0.5 * high, 0.5 * high - 0.5 * low
            entries = np.concatenate([values, diagonal - self.center])
        by_row = np.argsort(sources, kind="stable")
        self.basis, self.data, self.indices = basis, entries[by_row], targets[by_row]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(sources, minlength=basis.size))])

    def product(self, vectors: np.ndarray) -> np.ndarray:
        """(H - center) @ vectors, for (n, k) vectors."""
        terms = np.take(vectors, self.indices, axis=0)   # faster than vectors[self.indices]
        terms *= self.data[:, None]
        return np.add.reduceat(terms, self.indptr[:-1], axis=0)


def _sparse_mode_hamiltonian(params: ModelParameters, terms: _ModeTerms) -> _SparseHamiltonian:
    """H in the normal-mode basis of `terms`, as one CSR matrix of the entries that
    `build_mode_hamiltonian` cuts into blocks; `_ModeTerms.entries` checks them."""
    return _SparseHamiltonian(terms.basis, *terms.entries(params))

