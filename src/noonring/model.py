"""Four-site extended Bose-Hubbard Hamiltonian and its integrable structure.

Units: every coupling (U0, Uij, J, mu, nu) is stored as an angular frequency,
i.e. the value of X/hbar in rad/s, and times are in seconds.  hbar never
appears explicitly; exp(-i H t) is evaluated with H in rad/s and t in s.

The model

    H = (U0/2) sum_i N_i(N_i - 1) + sum_{i<j} U_ij N_i N_j
        - (J/2) [(a1+ + a3+)(a2 + a4) + (a1 + a3)(a2+ + a4+)]
        + mu (N2 - N4) + nu (N1 - N3)

is integrable (at mu = nu = 0) when U13 = U24 = U0 and
U12 = U23 = U34 = U14, acquiring the conserved charges

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
and H_eff is diagonal.  Ring-symmetric couplings (U13 = U24, U12 = U23 =
U34 = U14) add (U13 - U0)(N1 N3 + N2 N4), where per pair of sites N1 N3 =
[n_s(n_s - 1) + n_d(n_d - 1) - (s+^2 d^2 + d+^2 s^2)]/4 keeps only the parity
of n_d, i.e. the 1<->3 (2<->4) swap; the parities then key the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fock import FockBasis, hop_entries

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParameters:
    """Couplings of the four-site model, all in rad/s (X/hbar)."""

    u0: float
    u12: float
    u13: float
    u14: float
    u23: float
    u24: float
    u34: float
    j: float
    mu: float = 0.0
    nu: float = 0.0

    def ring_symmetric(self) -> bool:
        """U13 = U24 and U12 = U23 = U34 = U14: the condition for normal-mode blocks."""
        return self.u13 == self.u24 and self.u12 == self.u23 == self.u34 == self.u14

    def integrable(self) -> bool:
        """Exact integrability condition on the stored couplings."""
        return self.ring_symmetric() and self.u13 == self.u0

    @classmethod
    def integrable_set(
        cls,
        u: float,
        j: float,
        mu: float = 0.0,
        nu: float = 0.0,
        u0: float = 0.0,
    ) -> "ModelParameters":
        """Integrable couplings with prescribed U = (U12 - U0)/4.

        The spectrum of H minus its additive constant depends on (U, J)
        only, so u0 = 0 is the natural default for protocol work.
        """
        u_cross = u0 + 4.0 * u
        return cls(
            u0=u0, u12=u_cross, u13=u0, u14=u_cross,
            u23=u_cross, u24=u0, u34=u_cross, j=j, mu=mu, nu=nu,
        )

    def with_fields(self, mu: float, nu: float) -> "ModelParameters":
        return replace(self, mu=mu, nu=nu)

    def coupling_u(self) -> float:
        """U = (U12 - U0)/4, the band-splitting scale."""
        return (self.u12 - self.u0) / 4.0

    def to_dict(self) -> dict:
        return {
            "u0": self.u0, "u12": self.u12, "u13": self.u13, "u14": self.u14,
            "u23": self.u23, "u24": self.u24, "u34": self.u34, "j": self.j,
            "mu": self.mu, "nu": self.nu,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParameters":
        known = {
            "u0", "u12", "u13", "u14", "u23", "u24", "u34", "j", "mu", "nu",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown coupling keys: {sorted(unknown)}")
        missing = {"u0", "u12", "u13", "u14", "u23", "u24", "u34", "j"} - set(data)
        if missing:
            raise ValueError(f"missing coupling keys: {sorted(missing)}")
        return cls(**{k: float(v) for k, v in data.items()})


class HermitianOperator:
    """Hermitian matrix in a Fock sector, held in blocks, with a cached eigensystem.

    `blocks` holds one (indices, matrices) pair per block size: indices[k] are
    the basis positions of block k, matrices[k] the block, and `order` the
    positions block by block.  The blocks must cover the basis once; a dense
    matrix m is the one block (arange(n)[None], m[None]).
    """

    def __init__(self, basis: FockBasis, blocks, check: bool = True):
        self.basis = basis
        self.blocks = blocks
        self.order = np.concatenate([indices.ravel() for indices, _ in blocks])
        if self.order.size != basis.size:
            raise ValueError(f"blocks hold {self.order.size} states, the basis {basis.size}")
        self._eigensystem: tuple | None = None
        if check:
            self._require_finite()
            for _, matrices in blocks:
                deviation = float(np.max(np.abs(matrices - np.swapaxes(matrices, -1, -2).conj())))
                if not deviation <= HERMITICITY_TOL * max(1.0, float(np.max(np.abs(matrices)))):
                    raise ValueError(f"matrix is not Hermitian (max deviation {deviation:g})")

    def _require_finite(self) -> None:
        """Raise ArithmeticError, before LAPACK sees it, if an entry is inf or NaN."""
        if not all(np.isfinite(matrices).all() for _, matrices in self.blocks):
            raise ArithmeticError(f"{self!r} has non-finite entries")

    def eigensystem(self) -> tuple:
        """Eigenvalues (ascending) and eigenvector columns, one pair per entry of `blocks`.

        Computed once, with one batched eigh per block size; a 1 x 1 block needs none.
        """
        if self._eigensystem is None:
            self._require_finite()
            self._eigensystem = tuple(
                (matrices[..., 0], np.ones_like(matrices)) if matrices.shape[-1] == 1
                else np.linalg.eigh(matrices) for _, matrices in self.blocks)
        return self._eigensystem

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (ascending): the cached ones, else computed without eigenvectors."""
        if self._eigensystem is not None:
            values = [pair[0] for pair in self._eigensystem]
        else:
            self._require_finite()
            values = [np.linalg.eigvalsh(matrices) for _, matrices in self.blocks]
        return np.sort(np.concatenate([part.ravel() for part in values]))

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.basis.size})"


@dataclass(frozen=True)
class DerivedScales:
    """Band-dynamics scales for the (M, P) sector.

    omega = J^2/(4U((M-P)^2 - 1)), t_m = pi/(2 omega), and
    beta = (-1)^((N+1)/2) is the parity phase of the four-branch
    superposition (defined for odd N only; None otherwise).
    """

    m_occ: int
    p_occ: int
    u: float
    j: float
    omega: float
    t_m: float
    beta: int | None


def derived_scales(params: ModelParameters, m_occ: int, p_occ: int) -> DerivedScales:
    """Compute the resonant-regime scales for initial state |M,P,0,0>."""
    if m_occ < 0 or p_occ < 0:
        raise ValueError("occupations must be non-negative")
    if abs(m_occ - p_occ) < 2:
        raise ValueError(
            f"need |M - P| >= 2 for the resonant-regime scales, got M={m_occ}, P={p_occ}"
        )
    u = params.coupling_u()
    if u <= 0.0:
        raise ValueError(f"U = (U12 - U0)/4 must be positive, got {u:g}")
    n_total = m_occ + p_occ
    omega = params.j**2 / (4.0 * u * ((m_occ - p_occ) ** 2 - 1))
    t_m = np.pi / (2.0 * omega) if omega != 0.0 else np.inf
    beta = (-1) ** ((n_total + 1) // 2) if n_total % 2 == 1 else None
    return DerivedScales(
        m_occ=m_occ, p_occ=p_occ, u=u, j=params.j, omega=omega, t_m=t_m, beta=beta,
    )


def _hop_blocks(basis: FockBasis, mu: float, nu: float, j: float = 1.0,
                detuning: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """The off-diagonal part of H in the normal-mode basis, cut into blocks.

    `basis` is read as the occupations of (s13, s24, d13, d24), and `detuning`
    is U13 - U0.  Returns one (indices, hops) pair per block size: indices[k]
    are the basis positions of block k and hops[k] its hopping matrix, so every
    block of one size is diagonalized in one batched call.  A pair whose field
    is off keeps its n_d as block key, or only the parity of n_d at nonzero
    detuning.  The hop entries go straight into the blocks; no n x n matrix is
    built.  Raises ArithmeticError if a coupling overflows an entry to inf or NaN.
    """
    # -J s13+ s24, mu s24+ d24, nu s13+ d13, and the -detuning/4 s+^2 d^2 of each
    # pair; each entry also stands for its h.c.  No two of these hops connect the
    # same pair of states, so no entry is a sum.
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
    rows, columns, values = rows[on], columns[on], values[on]
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
                           hops=None) -> HermitianOperator:
    """H at ring-symmetric couplings, in normal-mode blocks (module docstring).

    `modes` is read as (s13, s24, d13, d24).  Integrable couplings give blocks
    of the conserved d-occupations, of size <= (N+2)(N+1)/2; U13 != U0 gives
    blocks of their parities.  `hops` may hand in `_hop_blocks(modes,
    params.mu, params.nu, params.j, params.u13 - params.u0)`, cut once for a
    sweep over U0 and U12 at fixed U13 - U0.
    """
    if not params.ring_symmetric():
        raise ValueError("normal-mode blocks need U13 = U24, U12 = U23 = U34 = U14")
    occ = modes.occupations.astype(float)
    m_occ, p_occ = occ[:, 0] + occ[:, 2], occ[:, 1] + occ[:, 3]
    detuning = params.u13 - params.u0
    hops = _hop_blocks(modes, params.mu, params.nu, params.j, detuning) if hops is None else hops
    # Extreme couplings overflow to inf/NaN entries, which eigensystem() reports
    # as an ArithmeticError; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = (params.u0 * (0.5 * (m_occ * (m_occ - 1.0) + p_occ * (p_occ - 1.0)))
                    + params.u12 * (m_occ * p_occ))
        if detuning != 0.0:   # the n(n - 1)/4 of every mode, from D
            diagonal += 0.25 * detuning * (occ * (occ - 1.0)).sum(axis=1)
    blocks = [(indices, matrices.copy()) for indices, matrices in hops]
    for indices, matrices in blocks:
        matrices[:, np.arange(indices.shape[1]), np.arange(indices.shape[1])] += diagonal[indices]
    # Symmetric by construction; eigensystem() still checks finiteness before LAPACK.
    return HermitianOperator(modes, blocks, check=False)


def diagonal_band_energy(params: ModelParameters, m_occ: int, p_occ: int) -> float:
    """J=0 energy of any |M-l, P-k, l, k> at integrable couplings.

    E = C - U (M-P)^2 with C = (U0 + U12) N^2 / 4 - U0 N / 2; the
    degeneracy in (l, k) is what the small-J bands inherit.
    """
    u = params.coupling_u()
    n_total = m_occ + p_occ
    constant = (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0
    return constant - u * (m_occ - p_occ) ** 2

