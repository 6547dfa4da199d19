"""Exact unitary evolution, and site-occupation probabilities.

Evolution uses the one-time eigendecomposition of the (time-independent)
Hamiltonian, exp(-i H t) |psi> = V exp(-i Lambda t) V+ |psi>, block by
block; no time-stepping integrator is involved.  A Hamiltonian that acts
only once, on one state (a detuned field pulse of `noonring.robustness`),
is held sparse instead and applied by the Chebyshev series of
exp(-i H t) (`_chebyshev_action`), which never diagonalizes it.  The pulsed
band interval of `noonring.robustness`, n_dt periods of H(+xi) then H(-xi),
is one `_Echo` step: the state changes into H(+xi)'s eigenbasis once, each
period applies the two phase factors and the mixing matrix between the two
eigenbases and its transpose, and the state changes back once.  An
operator in the ring rotation's basis (`noonring.model._RingRotation`)
changes the state into that basis and back, in place of the block order.
An entry of blocks on two sets of positions (a block and its ring-rotation
image, `noonring.model.HermitianOperator`) applies its V and its phases to
both sets of amplitudes as the columns of one product.  Every Hamiltonian
the package builds is real symmetric (`HermitianOperator` rejects complex
blocks), so V is real, and V.T and V act on the amplitudes
viewed as real (real, imaginary) pairs: numpy would otherwise make a complex
copy of V for each product.  A block of size 1 (the diagonal H_eff of
`noonring.protocols` is all such blocks) has |V| = 1, so its amplitudes are
only multiplied by their phases exp(-i E t).

`evolve` and `site_probabilities` map the columns of an (n, K) stack of
states (see `QuantumState`), `evolve` with one duration per column, so a
sweep reads each V once per stack rather than once per state; a single
state is the K = 1 case.  `stack_columns` caps a stack at STACK_BYTES of
amplitudes.

`site_probabilities` is the outcome distribution of an ideal, instantaneous
measurement of a site occupation: outcome r occurs with the summed weight of
all basis states carrying occupation r at that site.  The post-measurement
state, the renormalized projection, is formed where a protocol measures, and
its report carries the outcome and its probability (`noonring.protocols`).
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockBasis, QuantumState, _check_site
from .model import HermitianOperator, _SparseHamiltonian

STACK_BYTES = 256 * 1024   # amplitudes one stack of states holds at most


def stack_columns(basis: FockBasis) -> int:
    """States per stack within STACK_BYTES: 20 at N = 15 (dim 816), 2 at N = 31."""
    return max(1, STACK_BYTES // (16 * basis.size))


def evolve(state: QuantumState, hamiltonian: HermitianOperator | _SparseHamiltonian | _Echo,
           duration) -> QuantumState:
    """Apply exp(-i H t), t = duration in seconds, through the cached eigendecomposition of H
    or, for a sparse H, its Chebyshev series; an `_Echo` applies its n_dt periods.

    `duration` is one t, or one per column of an (n, K) stack.  V+ and V act on
    all blocks of one size and all columns in one batched product each, with
    the phases exp(-i E t) in between; V is never copied (see above).
    """
    durations = np.asarray(duration, dtype=float)
    if durations.shape not in ((), state.amplitudes.shape[1:]):
        raise ValueError(f"{durations.shape} durations for states {state.amplitudes.shape}")
    shortest = durations.min()
    if not shortest >= 0.0:   # NaN too
        raise ValueError(f"duration must be >= 0, got {shortest:g}")
    if hamiltonian.basis is not state.basis:
        raise ValueError("state and Hamiltonian use different bases")
    if shortest == 0.0 and not durations.any():
        return state.copy()
    if isinstance(hamiltonian, _SparseHamiltonian):
        evolved = _chebyshev_action(hamiltonian, state.amplitudes, durations)
    else:
        rotation = hamiltonian.rotation
        if rotation is None:   # block by block, like the eigenvalues
            blocked = state.amplitudes[hamiltonian.order]
        else:   # in the rotation's basis, which is in that order
            blocked = rotation.change(state.amplitudes)
        if isinstance(hamiltonian, _Echo):
            _echo(blocked, hamiltonian, durations)
        else:
            _rotate(blocked, hamiltonian.eigensystem(), hamiltonian.rows, durations)
        if rotation is None:
            evolved = np.empty_like(blocked)
            evolved[hamiltonian.order] = blocked
        else:
            evolved = rotation.change(blocked, back=True)
    if shortest == 0.0:   # t = 0 leaves a column exactly as it was
        still = durations == 0.0
        evolved[:, still] = state.amplitudes[:, still]
    return QuantumState(state.basis, evolved)


def _phases(energies: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """exp(-i E t) for each energy (rows) and duration (columns, or one for all)."""
    try:  # raise rather than hand NaN amplitudes to a measurement
        with np.errstate(over="raise", invalid="raise"):
            return np.exp(-1j * energies[:, None] * durations)
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"phases exp(-i E t) at t = {np.max(durations):g} s: {exc}") from None


def _pieces(blocked: np.ndarray, rows: list, parts: tuple, *phases: np.ndarray):
    """Per entry of `parts` (values first), its (count, size, columns) views of `blocked`
    (`rows` per entry) and of each of `phases`.  An entry with twice as many rows as values
    acts on two sets of amplitudes, interleaved, so they are its columns side by side."""
    start = row = 0
    for (values, *_), count in zip(parts, rows):
        views = [blocked[row:row + count].reshape(*values.shape, -1)]
        for phase in phases:
            phase = phase[start:start + values.size].reshape(*values.shape, -1)
            twice = count > values.size and phase.shape[-1] > 1   # a phase per column, twice
            views.append(np.tile(phase, 2) if twice else phase)
        start, row = start + values.size, row + count
        yield views


def _rotate(blocked: np.ndarray, parts: tuple, rows: list, durations: np.ndarray) -> None:
    """Replace `blocked` (amplitudes block by block) by V exp(-i Lambda t) V+ of it, in place.

    Its workspace is freed on return, before `evolve` allocates its result.
    """
    phases = _phases(np.concatenate([values.ravel() for values, _ in parts]), durations)
    for (values, vectors), (block, phase) in zip(parts, _pieces(blocked, rows, parts, phases)):
        if values.shape[-1] == 1:   # V exp(-i E t) V+ = exp(-i E t)
            block *= phase
        else:   # V.T and V act on the (real, imaginary) pairs
            rotated = vectors.swapaxes(-1, -2) @ block.view(np.float64)
            rotated.view(complex)[...] *= phase
            np.matmul(vectors, rotated, out=block.view(np.float64))


class _Echo:
    """n_dt periods of exp(-i H2 dt) exp(-i H1 dt), dt = t / (2 n_dt), held in H1's eigenbasis:
    the pulsed band interval of `noonring.robustness`.

    H1 = build(first) and H2 = build(second) must share their blocks (`order`,
    `rows`; for H(+-xi) without fields, the pieces of the ring rotation's basis).
    Per entry of their blocks the echo keeps H1's energies and eigenvectors V1,
    H2's energies, and the mixing matrix W = V2^T V1, which carries amplitudes
    from H1's eigenbasis into H2's.  Neither H is kept: each entry of an H is
    dropped once diagonalized, and each entry of V2 once its W is formed.
    `evolve` changes into H1's eigenbasis once, applies D1, W, D2 and W^T per
    period, D = exp(-i E dt), and changes back once: two matrix products per
    period, where slice-by-slice evolution makes four.
    """

    def __init__(self, build, first, second, n_dt: int):
        hamiltonian = build(first)
        self.basis, self.order, self.rows = hamiltonian.basis, hamiltonian.order, hamiltonian.rows
        self.rotation, self.n_dt = hamiltonian.rotation, n_dt
        first_parts = hamiltonian.eigensystem()
        del hamiltonian   # H1's blocks go before H2's are built
        hamiltonian = build(second)
        if (hamiltonian.basis is not self.basis or hamiltonian.rows != self.rows
                or not np.array_equal(hamiltonian.order, self.order)):
            raise ValueError("an echo needs two Hamiltonians in the same blocks")
        second_parts, parts = list(hamiltonian.eigensystem()), []
        del hamiltonian
        for k, (values, vectors) in enumerate(first_parts):   # each V2 goes once W is formed
            (other_values, other_vectors), second_parts[k] = second_parts[k], None
            parts.append((values, vectors, other_values, other_vectors.swapaxes(-1, -2) @ vectors))
        self.parts = tuple(parts)


def _echo(blocked: np.ndarray, echo: _Echo, durations: np.ndarray) -> None:
    """Replace `blocked` (amplitudes block by block) by the echo's n_dt periods of it, in place."""
    dt = durations / (2 * echo.n_dt)
    first = _phases(np.concatenate([part[0].ravel() for part in echo.parts]), dt)
    second = _phases(np.concatenate([part[2].ravel() for part in echo.parts]), dt)
    for (_, vectors, _, mixing), (block, phase1, phase2) in zip(
            echo.parts, _pieces(blocked, echo.rows, echo.parts, first, second)):
        # (real, imaginary) pairs in H1's eigenbasis, and their image in H2's
        inside = vectors.swapaxes(-1, -2) @ block.view(np.float64)
        mixed, unmixing = np.empty_like(inside), mixing.swapaxes(-1, -2)
        inside_amplitudes, mixed_amplitudes = inside.view(complex), mixed.view(complex)
        for _ in range(echo.n_dt):
            inside_amplitudes *= phase1
            np.matmul(mixing, inside, out=mixed)
            mixed_amplitudes *= phase2
            np.matmul(unmixing, mixed, out=inside)
        np.matmul(vectors, inside, out=block.view(np.float64))


def _chebyshev_action(hamiltonian: _SparseHamiltonian, amplitudes: np.ndarray,
                      durations: np.ndarray) -> np.ndarray:
    """exp(-i H t) applied to `amplitudes` (one state or an (n, K) stack), one t per column.

    The Chebyshev expansion of Tal-Ezer and Kosloff (J. Chem. Phys. 81, 3967 (1984)).
    With H = c + R X, [c - R, c + R] its Gershgorin interval, X's spectrum lies in
    [-1, 1], and

        exp(-i H t) = exp(-i c t) sum_k (2 - delta_k0) (-i)^k J_k(R t) T_k(X),

    where T_k(X) psi = 2 X T_(k-1)(X) psi - T_(k-2)(X) psi costs one product with
    H per term.  The series stops at the first order above R t with J_k(R t) < 1e-17
    (`_bessel_coefficients`).  Even terms are real multiples of T_k psi and odd ones
    imaginary, so they are summed apart, with real weights.
    """
    columns = amplitudes.reshape(hamiltonian.basis.size, -1)
    times = np.broadcast_to(durations, columns.shape[1:])
    evolved = np.empty(columns.shape, dtype=complex)
    for t in sorted(set(times.tolist())):   # np.unique would import numpy.ma
        chosen = times == t
        width, phase = hamiltonian.radius * t, -hamiltonian.center * t
        if not (math.isfinite(width) and math.isfinite(phase)):
            raise ArithmeticError(f"exp(-i H t) at t = {t:g} s: spectral half-width x t = "
                                  f"{width:g}, spectral center x t = {-phase:g}")
        bessel = _bessel_coefficients(width)
        weights = 2.0 * bessel * (-1.0) ** (np.arange(bessel.size) // 2)
        weights[0] = bessel[0]
        state = columns[:, chosen]
        sums = [weights[0] * state, np.zeros_like(state)]   # the even and the odd terms
        previous, current = np.zeros_like(state), state
        for k in range(1, bessel.size):
            following = hamiltonian.product(current)
            following *= (2.0 if k > 1 else 1.0) / hamiltonian.radius
            following -= previous
            previous, current = current, following
            sums[k % 2] += weights[k] * current
        evolved[:, chosen] = np.exp(1j * phase) * (sums[0] - 1j * sums[1])
    return evolved.reshape(amplitudes.shape)


def _bessel_coefficients(z: float) -> np.ndarray:
    """J_0(z), ..., J_K(z) for z >= 0, K the lowest order above z with |J_K(z)| < 1e-17.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1), from J_(s+1) = 0 and
    J_s = 1 at s = z + 30 z^(1/3) + 20, where J_s(z) < 1e-40, normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1.  The values are rescaled before they can
    overflow: at small z each step multiplies them by about 2k/z.
    """
    if z == 0.0:
        return np.ones(1)
    values = [0.0, 1.0]   # unnormalized, from J_(s+1) down
    for k in range(int(z + 30.0 * z ** (1.0 / 3.0)) + 20, 0, -1):
        values.append(2.0 * k / z * values[-1] - values[-2])
        if abs(values[-1]) > 1e250:
            values = [value * 1e-250 for value in values]
    bessel = np.array(values[:0:-1])   # J_0 ... J_s
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()
    orders = np.arange(bessel.size)
    return bessel[:np.flatnonzero((orders > z) & (np.abs(bessel) < 1e-17))[0] + 1]


def site_probabilities(state: QuantumState, site: int) -> np.ndarray:
    """P(occupation r at `site`) for r = 0..N: shape (N + 1,), or (N + 1, K) for a stack.

    One weighted bincount over all columns; each column's weights are summed in
    basis order, as for a single state.
    """
    j = _check_site(site)
    weights = np.abs(state.amplitudes.reshape(state.basis.size, -1)) ** 2
    columns = weights.shape[1]
    bins = state.basis.occupations[:, j, None] * columns + np.arange(columns)
    probabilities = np.bincount(bins.ravel(), weights=weights.ravel(),
                                minlength=(state.basis.n_total + 1) * columns)
    return probabilities.reshape((state.basis.n_total + 1, *state.amplitudes.shape[1:]))
