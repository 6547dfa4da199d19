"""Unitary evolution, the normal-mode change of basis, and site-occupation measurement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import jv

from noonring.dynamics import (
    NormalModes, _beam_splitter, _bessel_coefficients, _Echo, evolve, site_probabilities,
    stack_columns)
from noonring.fock import QuantumState, enumerate_basis
from noonring.model import (
    ModelParameters, _ModeTerms, _SparseHamiltonian, _sparse_mode_hamiltonian,
    build_mode_hamiltonian)
from noonring.protocols import IdealDynamics, ProtocolConfig, run_protocol1

from conftest import SET1, dense_operator, mode_matrix
from oracle import add_into, create, hamiltonian_matrix, site_distribution


def random_state(basis, rng):
    raw = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return QuantumState(basis, raw / np.linalg.norm(raw))


def random_hamiltonian(basis, rng):
    params = ModelParameters.integrable_set(
        u=float(rng.uniform(1.0, 5.0)), j=float(rng.uniform(0.2, 2.0)))
    return dense_operator(basis, hamiltonian_matrix(basis.n_total, params.to_dict()))


def block_matrix(operator):
    """A block operator's blocks scattered into a dense matrix; pieces in the ring rotation's
    basis T (each on one or two sets of positions) are carried back by T."""
    dense = np.zeros((operator.basis.size, operator.basis.size))
    for indices, matrices in operator.blocks:
        for positions in np.moveaxis(indices.reshape(*indices.shape[:2], -1), -1, 0):
            dense[positions[:, :, None], positions[:, None, :]] = matrices
    if operator.rotation is not None:
        t = operator.rotation.change(np.eye(operator.basis.size, dtype=complex)).real
        dense = t.T @ dense @ t
    return dense


class TestEvolution:
    def test_norm_preserved(self, basis3):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_hamiltonian(basis3, rng)
            state = random_state(basis3, rng)
            out = evolve(state, h, float(rng.uniform(0.0, 20.0)))
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration_is_identity(self, basis3):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(basis3, rng)
        state = random_state(basis3, rng)
        out = evolve(state, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)
        assert out is not state

    def test_composition(self, basis3):
        rng = np.random.default_rng(9)
        h = random_hamiltonian(basis3, rng)
        state = random_state(basis3, rng)
        joined = evolve(state, h, 1.7)
        split = evolve(evolve(state, h, 0.6), h, 1.1)
        np.testing.assert_allclose(joined.amplitudes, split.amplitudes, atol=1e-12)

    def test_energy_conserved(self, basis3):
        rng = np.random.default_rng(13)
        h = random_hamiltonian(basis3, rng)
        state = random_state(basis3, rng)
        matrix = block_matrix(h)
        before = np.real(state.amplitudes.conj() @ matrix @ state.amplitudes)
        out = evolve(state, h, 4.2)
        after = np.real(out.amplitudes.conj() @ matrix @ out.amplitudes)
        assert after == pytest.approx(before, abs=1e-10)

    def test_eigenstate_picks_up_pure_phase(self, basis2):
        rng = np.random.default_rng(15)
        h = random_hamiltonian(basis2, rng)
        (values, vectors), = h.eigensystem()   # a dense matrix is one block
        k, t = 3, 2.5
        state = QuantumState(basis2, vectors[0, :, k].astype(complex))
        out = evolve(state, h, t)
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * values[0, k] * t) * state.amplitudes,
            atol=1e-12)

    @pytest.mark.parametrize("n_total", [3, 5])
    def test_real_hamiltonian_matches_expm(self, n_total):
        rng = np.random.default_rng(n_total)
        basis = enumerate_basis(n_total)
        params = ModelParameters.integrable_set(u=2.3, j=0.9, mu=0.7)
        matrix = hamiltonian_matrix(n_total, params.to_dict())
        state = random_state(basis, rng)
        out = evolve(state, dense_operator(basis, matrix), 1.3)
        np.testing.assert_allclose(
            out.amplitudes, expm(-1j * matrix * 1.3) @ state.amplitudes, atol=1e-12)

    def test_complex_hamiltonian_rejected(self, basis3):
        # evolve acts with real eigenvectors only; the package builds no complex H.
        rng = np.random.default_rng(17)
        size = len(basis3)
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        for check in (True, False):
            with pytest.raises(ValueError, match="blocks must be real"):
                dense_operator(basis3, raw + raw.conj().T, check)

    def test_strided_state_matches_expm(self, basis3):
        rng = np.random.default_rng(19)
        h = random_hamiltonian(basis3, rng)
        big = np.zeros(2 * len(basis3), dtype=complex)
        big[::2] = random_state(basis3, rng).amplitudes
        state = QuantumState(basis3, big[::2])
        assert not state.amplitudes.flags.c_contiguous
        matrix = block_matrix(h)   # evolve decomposes h, which drops its blocks
        out = evolve(state, h, 2.1)
        np.testing.assert_allclose(
            out.amplitudes, expm(-1j * matrix * 2.1) @ big[::2], atol=1e-12)

    def test_negative_duration_rejected(self, basis2):
        rng = np.random.default_rng(1)
        h = random_hamiltonian(basis2, rng)
        with pytest.raises(ValueError):
            evolve(random_state(basis2, rng), h, -0.1)

    def test_overflowing_phase_raises(self, basis2):
        rng = np.random.default_rng(3)
        h = random_hamiltonian(basis2, rng)
        with pytest.raises(ArithmeticError):
            evolve(random_state(basis2, rng), h, np.inf)

    def test_basis_mismatch_rejected(self, basis2, basis3):
        rng = np.random.default_rng(2)
        h = random_hamiltonian(basis2, rng)
        state = random_state(basis3, rng)
        with pytest.raises(ValueError):
            evolve(state, h, 1.0)


def stack_operator(kind, n_total):
    """An operator in the basis it acts on: normal-mode blocks of several sizes (a
    field on), or H_eff's 1 x 1 blocks."""
    basis = enumerate_basis(n_total)
    params = ModelParameters.integrable_set(u=2.3, j=0.9, mu=0.7, u0=0.4)
    modes = NormalModes(basis)
    if kind == "modes":
        return build_mode_hamiltonian(params, modes.terms)
    return IdealDynamics(basis).hamiltonian(0.011)   # any Omega


class TestStacks:
    """A stack of K states with one duration each evolves as K single states."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["modes", "heff"]),
        n_total=st.integers(0, 6),
        durations=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_single_evolves(self, kind, n_total, durations, seed):
        rng = np.random.default_rng(seed)
        operator = stack_operator(kind, n_total)
        blocks = operator.blocks   # evolve decomposes the operator, which drops them
        if kind == "modes":
            assert len(blocks) > 1 or n_total < 2   # blocks of several sizes
        stack = np.column_stack([random_state(operator.basis, rng).amplitudes for _ in durations])
        evolved = evolve(QuantumState(operator.basis, stack), operator, durations).amplitudes
        assert evolved.shape == stack.shape
        for k, duration in enumerate(durations):
            single = evolve(QuantumState(operator.basis, stack[:, k]), operator, duration)
            np.testing.assert_allclose(evolved[:, k], single.amplitudes, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(
                site_probabilities(QuantumState(operator.basis, evolved), 3)[:, k],
                site_probabilities(QuantumState(operator.basis, evolved[:, k].copy()), 3))
        if kind == "heff":   # 1 x 1 blocks: exp(-i E t) psi, bit for bit
            energies = np.empty(operator.basis.size)   # a pair's image takes its energy
            for indices, matrices in blocks:
                energies[indices.reshape(len(indices), -1)] = matrices[:, 0, :1]
            # In place, as evolve multiplies: numpy's out-of-place product can round
            # the last bit differently.
            expected = stack.copy()
            expected *= np.exp(-1j * energies[:, None] * np.asarray(durations))
            np.testing.assert_array_equal(evolved, expected)

    def test_one_duration_serves_every_column(self, basis3):
        rng = np.random.default_rng(43)
        h = random_hamiltonian(basis3, rng)
        stack = QuantumState(basis3, np.column_stack([random_state(basis3, rng).amplitudes] * 3))
        np.testing.assert_array_equal(evolve(stack, h, 1.3).amplitudes,
                                      evolve(stack, h, [1.3] * 3).amplitudes)

    def test_zero_duration_columns_are_left_exactly(self, basis3):
        rng = np.random.default_rng(47)
        h = random_hamiltonian(basis3, rng)
        stack = np.column_stack([random_state(basis3, rng).amplitudes for _ in range(3)])
        evolved = evolve(QuantumState(basis3, stack), h, [0.0, 2.0, 0.0]).amplitudes
        np.testing.assert_array_equal(evolved[:, [0, 2]], stack[:, [0, 2]])

    def test_one_negative_duration_rejected(self, basis3):
        rng = np.random.default_rng(53)
        h = random_hamiltonian(basis3, rng)
        stack = QuantumState(basis3, np.column_stack([random_state(basis3, rng).amplitudes] * 3))
        with pytest.raises(ValueError, match="duration must be >= 0"):
            evolve(stack, h, [1.0, -0.1, 2.0])

    def test_one_overflowing_column_raises(self, basis3):
        rng = np.random.default_rng(59)
        h = random_hamiltonian(basis3, rng)
        stack = QuantumState(basis3, np.column_stack([random_state(basis3, rng).amplitudes] * 3))
        with pytest.raises(ArithmeticError):
            evolve(stack, h, [1.0, np.inf, 2.0])

    def test_duration_count_must_match_the_columns(self, basis3):
        rng = np.random.default_rng(61)
        h = random_hamiltonian(basis3, rng)
        stack = QuantumState(basis3, np.column_stack([random_state(basis3, rng).amplitudes] * 3))
        with pytest.raises(ValueError):
            evolve(stack, h, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(random_state(basis3, rng), h, [1.0])

    def test_mode_change_maps_columns(self, basis5):
        rng = np.random.default_rng(67)
        modes = NormalModes(basis5)
        columns = [random_state(basis5, rng).amplitudes for _ in range(4)]
        changed = modes.change(QuantumState(basis5, np.column_stack(columns)), modes.basis)
        for k, column in enumerate(columns):
            single = modes.change(QuantumState(basis5, column), modes.basis)
            np.testing.assert_array_equal(changed.amplitudes[:, k], single.amplitudes)

    @pytest.mark.parametrize("n_total, columns", [(15, 20), (31, 2), (1, 4096)])
    def test_stack_budget(self, n_total, columns):
        assert stack_columns(enumerate_basis(n_total)) == columns


class TestBeamSplitter:
    @pytest.mark.parametrize("n", range(42))
    def test_orthonormal_and_equal_to_the_eigensolver_splitter(self, n):
        splitter = _beam_splitter(n)
        np.testing.assert_allclose(splitter.T @ splitter, np.eye(n + 1), rtol=0, atol=1e-15)
        hop = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1.0))  # <n_a + 1| a+ b |n_a>
        vectors = eigh_tridiagonal(np.zeros(n + 1), hop)[1]
        np.testing.assert_allclose(splitter, vectors * np.sign(vectors[-1]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [62, 63, 70])
    def test_exact_past_int64(self, n):
        """Past 2^63 the coefficients are Python ints; the columns stay eigenvectors
        of a+ b + b+ a for 2 k - n."""
        splitter = _beam_splitter(n)
        np.testing.assert_allclose(splitter.T @ splitter, np.eye(n + 1), rtol=0, atol=1e-14)
        hop = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1.0))
        exchange = np.diag(hop, 1) + np.diag(hop, -1)
        np.testing.assert_allclose(exchange @ splitter, splitter * np.arange(-n, n + 1, 2),
                                   rtol=0, atol=1e-12 * n)


class TestNormalModes:
    @pytest.mark.parametrize("n_total", [0, 1, 4, 7, 15])
    def test_transform_is_orthogonal(self, n_total):
        w = mode_matrix(NormalModes(enumerate_basis(n_total)))
        assert not np.any(w.imag)
        np.testing.assert_allclose(w.real.T @ w.real, np.eye(len(w)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_total", range(8))
    @pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.7, 0.0), (0.0, -0.4)])
    def test_site_hamiltonian_becomes_the_mode_blocks(self, n_total, mu, nu):
        modes = NormalModes(enumerate_basis(n_total))
        params = ModelParameters.integrable_set(u=2.3, j=0.9, mu=mu, nu=nu, u0=0.4)
        w = mode_matrix(modes).real
        h_site = hamiltonian_matrix(n_total, params.to_dict())
        blocks = block_matrix(build_mode_hamiltonian(params, modes.terms))
        scale = max(1.0, float(np.abs(h_site).max()))
        np.testing.assert_allclose(w.T @ h_site @ w, blocks, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("mode, pair, sign", [
        ((1, 0, 0, 0), (1, 3), 1.0),    # s13 = (a1 + a3)/sqrt2
        ((0, 1, 0, 0), (2, 4), 1.0),    # s24 = (a2 + a4)/sqrt2
        ((0, 0, 1, 0), (1, 3), -1.0),   # d13 = (a1 - a3)/sqrt2
        ((0, 0, 0, 1), (2, 4), -1.0),   # d24 = (a2 - a4)/sqrt2
    ])
    def test_single_boson_mode_states_match_the_oracle(self, mode, pair, sign):
        modes = NormalModes(enumerate_basis(1))
        ours = modes.change(QuantumState.from_fock(modes.basis, mode), modes.sites).amplitudes
        vacuum = {(0, 0, 0, 0): 1.0}
        expected = {}
        add_into(expected, create(vacuum, pair[0]), 1.0 / math.sqrt(2.0))
        add_into(expected, create(vacuum, pair[1]), sign / math.sqrt(2.0))
        for k, occupations in enumerate(modes.sites):
            assert ours[k] == pytest.approx(expected.get(occupations, 0.0), abs=1e-15)

    def test_states_in_the_wrong_basis_are_rejected(self, basis3):
        modes = NormalModes(basis3)
        site_state = QuantumState.from_fock(basis3, (1, 2, 0, 0))
        h_modes = build_mode_hamiltonian(
            ModelParameters.integrable_set(u=2.0, j=1.0), modes.terms)
        with pytest.raises(ValueError):
            evolve(site_state, h_modes, 1.0)
        with pytest.raises(ValueError):
            modes.change(site_state, modes.sites)
        with pytest.raises(ValueError):
            modes.change(modes.change(site_state, modes.basis), modes.basis)

    @settings(max_examples=60, deadline=None)
    @given(
        n_total=st.integers(0, 7),
        u0=st.floats(-5.0, 5.0),
        u12=st.floats(-5.0, 20.0),
        u13=st.floats(-5.0, 5.0),
        j=st.floats(0.1, 5.0),
        field=st.sampled_from(["none", "mu", "nu"]),
        strength=st.floats(-3.0, 3.0),
    )
    def test_ring_symmetric_hamiltonian_becomes_the_parity_blocks(
            self, n_total, u0, u12, u13, j, field, strength):
        assume(u13 != u0)
        modes = NormalModes(enumerate_basis(n_total))
        params = ModelParameters(
            u0=u0, u12=u12, u13=u13, j=j,
            mu=strength if field == "mu" else 0.0, nu=strength if field == "nu" else 0.0)
        w = mode_matrix(modes).real
        h_site = hamiltonian_matrix(n_total, params.to_dict())
        blocks = block_matrix(build_mode_hamiltonian(params, modes.terms))
        scale = max(1.0, float(np.abs(h_site).max()))
        np.testing.assert_allclose(w.T @ h_site @ w, blocks, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("mu, nu, sizes", [
        # both n_d parities, 240/204/204/168, in the ring rotation's pieces: halves of 240
        # and 168, and one 204 for both blocks that the rotation pairs
        (0.0, 0.0, [120, 120, 204, 84, 84]),
        (0.7, 0.0, [444, 372]),             # the n_d13 parity: (816 +- 72)/2
        (0.0, -0.4, [444, 372]),            # the n_d24 parity
    ])
    def test_detuned_blocks_at_n15_follow_the_swap_parities(self, mu, nu, sizes):
        params = ModelParameters.integrable_set(u=3.0, j=1.0, mu=mu, nu=nu, u0=0.5)
        params = replace(params, u13=0.6)
        operator = build_mode_hamiltonian(params, _ModeTerms(enumerate_basis(15)))
        assert [indices.shape[1] for indices, _ in operator.blocks for _ in indices] == sizes

    @settings(max_examples=60, deadline=None)
    @given(
        n_total=st.integers(0, 7),
        u=st.floats(0.5, 20.0),
        j=st.floats(0.1, 5.0),
        u0=st.floats(-5.0, 5.0),
        field=st.sampled_from(["none", "mu", "nu"]),
        strength=st.floats(-3.0, 3.0),
        duration=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_evolution_matches_dense(
            self, n_total, u, j, u0, field, strength, duration, seed):
        basis = enumerate_basis(n_total)
        modes = NormalModes(basis)
        params = ModelParameters.integrable_set(
            u=u, j=j, u0=u0,
            mu=strength if field == "mu" else 0.0, nu=strength if field == "nu" else 0.0)
        state = random_state(basis, np.random.default_rng(seed))
        dense = evolve(
            state, dense_operator(basis, hamiltonian_matrix(n_total, params.to_dict())), duration)
        blocks = modes.evolve_in_modes(
            state, [(build_mode_hamiltonian(params, modes.terms), duration)])
        np.testing.assert_allclose(blocks.amplitudes, dense.amplitudes, rtol=0, atol=1e-10)


class TestEcho:
    """The pulsed band interval as one echo step in H1's eigenbasis, against n_dt periods
    of slice-by-slice evolution under H1 and H2 = H(+xi) and H(-xi)."""

    def couplings(self, xi, mu=0.0):
        params = ModelParameters.integrable_set(u=3.0, j=1.0, mu=mu, u0=0.4)
        return [replace(params, u13=params.u0 + x) for x in (xi, -xi)]

    def echo(self, basis, n_dt, first, second):
        terms = _ModeTerms(basis)
        return _Echo(lambda params: build_mode_hamiltonian(params, terms), first, second, n_dt)

    @pytest.mark.parametrize("n_total", [5, 15])
    @pytest.mark.parametrize("n_dt", [1, 7])
    def test_matches_slice_by_slice_evolution(self, n_total, n_dt):
        basis = enumerate_basis(n_total)
        first, second = self.couplings(0.3)
        rng = np.random.default_rng(n_total + n_dt)
        state = QuantumState(basis, np.column_stack([random_state(basis, rng).amplitudes
                                                     for _ in range(4)]))
        durations = np.array([0.0, 0.02, 0.05, 0.11])   # E t of order 10 rad at N = 15
        evolved = evolve(state, self.echo(basis, n_dt, first, second), durations)
        h1, h2 = (build_mode_hamiltonian(params, _ModeTerms(basis)) for params in (first, second))
        sliced, dt = state, durations / (2 * n_dt)
        for _ in range(n_dt):
            sliced = evolve(evolve(sliced, h1, dt), h2, dt)
        np.testing.assert_allclose(evolved.amplitudes, sliced.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(evolved.amplitudes[:, 0], state.amplitudes[:, 0])

    def test_keeps_the_checks_of_evolve(self, basis5, basis3):
        echo = self.echo(basis5, 3, *self.couplings(0.3))
        state = random_state(basis5, np.random.default_rng(1))
        stack = QuantumState(basis5, np.column_stack([state.amplitudes] * 2))
        with pytest.raises(ValueError):
            evolve(stack, echo, [0.1, -0.1])
        with pytest.raises(ArithmeticError):   # E t / (2 n_dt) overflows
            evolve(stack, echo, [0.1, 1e308])
        with pytest.raises(ValueError):
            evolve(random_state(basis3, np.random.default_rng(2)), echo, 0.1)
        with pytest.raises(ValueError):
            evolve(stack, echo, [0.1, 0.2, 0.3])
        assert evolve(state, echo, 0.0).amplitudes.tolist() == state.amplitudes.tolist()

    def test_needs_two_hamiltonians_in_the_same_blocks(self, basis5):
        (first, _), (fielded, _) = self.couplings(0.3), self.couplings(0.3, mu=0.7)
        with pytest.raises(ValueError, match="same blocks"):
            self.echo(basis5, 2, first, fielded)


class TestChebyshevPulse:
    """A sparse H (a robustness pulse) applied by the Chebyshev series of exp(-i H t)."""

    # detuned (U13 != U0) and with both fields on, so every kind of entry is present
    PARAMS = ModelParameters(u0=1.3, u12=7.9, u13=2.1, j=1.7, mu=0.6, nu=0.4)

    @pytest.mark.parametrize("z", [1e-12, 1.0, 30.7, 500.0])
    def test_bessel_coefficients_match_scipy(self, z):
        """J_0(z) .. J_K(z), K the first order above z below 1e-17; scipy's jv itself
        errs by ~1e-14 at z = 500."""
        coefficients = _bessel_coefficients(z)
        orders = np.arange(coefficients.size)
        np.testing.assert_allclose(coefficients, jv(orders, z), rtol=0, atol=2e-14)
        assert orders[-1] > z and abs(coefficients[-1]) < 1e-17
        assert np.all(np.abs(coefficients[(orders > z) & (orders < orders[-1])]) >= 1e-17)

    @pytest.mark.parametrize("t", [1e-3, 0.4, 3.0])
    def test_matches_expm(self, basis5, t):
        modes = NormalModes(basis5)
        w = mode_matrix(modes)
        dense = w.T @ hamiltonian_matrix(5, self.PARAMS.to_dict()) @ w
        pulse = _sparse_mode_hamiltonian(self.PARAMS, modes.terms)
        energies = np.linalg.eigvalsh(dense)
        assert pulse.center - pulse.radius <= energies[0] and energies[-1] <= pulse.center + pulse.radius
        state = random_state(modes.basis, np.random.default_rng(7))
        np.testing.assert_allclose(evolve(state, pulse, t).amplitudes,
                                   expm(-1j * t * dense) @ state.amplitudes, rtol=0, atol=1e-13)

    def test_zero_duration_in_a_stack(self, basis5):
        pulse = _sparse_mode_hamiltonian(self.PARAMS, _ModeTerms(basis5))
        state = random_state(basis5, np.random.default_rng(8))
        stack = QuantumState(basis5, np.column_stack([state.amplitudes] * 3))
        evolved = evolve(stack, pulse, [0.0, 0.4, 0.0])
        np.testing.assert_array_equal(evolved.amplitudes[:, [0, 2]], stack.amplitudes[:, [0, 2]])
        np.testing.assert_array_equal(evolved.amplitudes[:, 1], evolve(state, pulse, 0.4).amplitudes)
        assert _bessel_coefficients(0.0).tolist() == [1.0]

    def test_zero_width_spectrum_is_a_phase(self, basis5):
        states = np.arange(basis5.size)   # the diagonal alone
        pulse = _SparseHamiltonian(basis5, states, states, np.full(basis5.size, 2.5))
        assert (pulse.center, pulse.radius) == (2.5, 0.0)
        state = random_state(basis5, np.random.default_rng(9))
        np.testing.assert_allclose(evolve(state, pulse, 0.7).amplitudes,
                                   np.exp(-1.75j) * state.amplitudes, rtol=0, atol=1e-15)


def measured_branches(state):
    """`run_protocol1`'s branch reports when its mu segment yields `state` (N = 5, M = 1):
    the renormalized projections that its site-3 measurement makes."""

    class Handing:   # protocol dynamics reduced to handing over `state`
        basis = state.basis

        def mu_segment(self, states, cfg, theta):
            return QuantumState(state.basis, state.amplitudes[:, None])

    cfg = ProtocolConfig(1, 4, **SET1)
    return run_protocol1(cfg, 0.0, Handing())


class TestMeasurement:
    def test_distribution_sums_to_one(self, basis3):
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = random_state(basis3, rng)
            for site in range(1, 5):
                dist = site_probabilities(state, site)
                assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_distribution_matches_brute_force(self, basis3):
        rng = np.random.default_rng(25)
        for _ in range(5):
            state = random_state(basis3, rng)
            as_dict = {occ: state.amplitudes[k] for k, occ in enumerate(basis3)}
            for site in range(1, 5):
                ours = site_probabilities(state, site)
                reference = site_distribution(as_dict, site)
                assert ours.shape == (basis3.n_total + 1,)
                for outcome, probability in enumerate(ours):
                    assert probability == pytest.approx(
                        reference.get(outcome, 0.0), abs=1e-12)

    def test_fock_state_is_deterministic(self, basis3, basis5):
        state = QuantumState.from_fock(basis3, (0, 2, 1, 0))
        assert site_probabilities(state, 2).tolist() == [0.0, 0.0, 1.0, 0.0]
        (branch,) = measured_branches(QuantumState.from_fock(basis5, (1, 2, 1, 1)))
        assert branch.outcome == 1
        assert branch.probability == pytest.approx(1.0)

    def test_projection_support_and_normalization(self, basis5):
        rng = np.random.default_rng(29)
        state = random_state(basis5, rng)
        occ = basis5.occupations[:, 2]
        expected = site_probabilities(state, 3)
        for branch in measured_branches(state):
            outcome = branch.outcome
            assert branch.final_state.norm() == pytest.approx(1.0, abs=1e-12)
            off_support = branch.final_state.amplitudes[occ != outcome]
            np.testing.assert_allclose(off_support, 0.0)
            assert branch.probability == pytest.approx(expected[outcome], abs=1e-12)

    def test_impossible_outcome_rejected(self, basis5):
        # Site 3 holds no boson, so outcomes 1..5 have zero probability and no branch.
        branches = measured_branches(QuantumState.from_fock(basis5, (5, 0, 0, 0)))
        assert [branch.outcome for branch in branches] == [0]

    def test_projections_exhaust_the_state(self, basis5):
        rng = np.random.default_rng(31)
        state = random_state(basis5, rng)
        total = sum(branch.probability for branch in measured_branches(state))
        assert total == pytest.approx(1.0, abs=1e-10)
