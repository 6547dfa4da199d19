"""Unitary evolution, the normal-mode change of basis, and projective measurement."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from noonring.dynamics import NormalModes, evolve, measure_distribution, project
from noonring.fock import QuantumState, enumerate_basis
from noonring.model import (
    HermitianOperator,
    ModelParameters,
    build_full_hamiltonian,
    build_mode_hamiltonian,
)

from oracle import add_into, create, site_distribution


def random_state(basis, rng):
    raw = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return QuantumState(basis, raw / np.linalg.norm(raw))


def random_hamiltonian(basis, rng):
    params = ModelParameters.integrable_set(
        u=float(rng.uniform(1.0, 5.0)), j=float(rng.uniform(0.2, 2.0)))
    return build_full_hamiltonian(params, basis)


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
        before = np.real(state.amplitudes.conj() @ h.matrix @ state.amplitudes)
        out = evolve(state, h, 4.2)
        after = np.real(out.amplitudes.conj() @ h.matrix @ out.amplitudes)
        assert after == pytest.approx(before, abs=1e-10)

    def test_eigenstate_picks_up_pure_phase(self, basis2):
        rng = np.random.default_rng(15)
        h = random_hamiltonian(basis2, rng)
        (values, vectors), = h.eigensystem()   # a dense matrix is one block
        k, t = 3, 2.5
        state = QuantumState(basis2, vectors[:, k].astype(complex))
        out = evolve(state, h, t)
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * values[k] * t) * state.amplitudes,
            atol=1e-12)

    @pytest.mark.parametrize("n_total", [3, 5])
    def test_real_hamiltonian_matches_expm(self, n_total):
        rng = np.random.default_rng(n_total)
        basis = enumerate_basis(n_total)
        params = ModelParameters.integrable_set(u=2.3, j=0.9, mu=0.7)
        h = build_full_hamiltonian(params, basis)
        state = random_state(basis, rng)
        out = evolve(state, h, 1.3)
        np.testing.assert_allclose(
            out.amplitudes, expm(-1j * h.matrix * 1.3) @ state.amplitudes, atol=1e-12)

    def test_complex_hamiltonian_matches_expm(self, basis3):
        rng = np.random.default_rng(17)
        size = len(basis3)
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h = HermitianOperator(basis3, raw + raw.conj().T)
        assert np.iscomplexobj(h.eigensystem()[0][1])
        state = random_state(basis3, rng)
        out = evolve(state, h, 0.8)
        np.testing.assert_allclose(
            out.amplitudes, expm(-1j * h.matrix * 0.8) @ state.amplitudes, atol=1e-12)

    def test_strided_state_matches_expm(self, basis3):
        rng = np.random.default_rng(19)
        h = random_hamiltonian(basis3, rng)
        big = np.zeros(2 * len(basis3), dtype=complex)
        big[::2] = random_state(basis3, rng).amplitudes
        state = QuantumState(basis3, big[::2])
        assert not state.amplitudes.flags.c_contiguous
        out = evolve(state, h, 2.1)
        np.testing.assert_allclose(
            out.amplitudes, expm(-1j * h.matrix * 2.1) @ big[::2], atol=1e-12)

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


def mode_matrix(modes):
    """W with psi_site = W psi_mode, built column by column from unit mode states."""
    return np.column_stack([
        modes.change(QuantumState(modes.basis, unit), modes.sites).amplitudes
        for unit in np.eye(modes.basis.size)])


def block_matrix(operator):
    """A block operator's blocks scattered into a dense matrix."""
    dense = np.zeros((operator.basis.size, operator.basis.size))
    for indices, matrices in operator.blocks:
        dense[indices[:, :, None], indices[:, None, :]] = matrices
    return dense


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
        h_site = build_full_hamiltonian(params, modes.sites).matrix
        blocks = block_matrix(build_mode_hamiltonian(params, modes.basis))
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
            ModelParameters.integrable_set(u=2.0, j=1.0), modes.basis)
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
            u0=u0, u12=u12, u13=u13, u14=u12, u23=u12, u24=u13, u34=u12, j=j,
            mu=strength if field == "mu" else 0.0, nu=strength if field == "nu" else 0.0)
        w = mode_matrix(modes).real
        h_site = build_full_hamiltonian(params, modes.sites).matrix
        blocks = block_matrix(build_mode_hamiltonian(params, modes.basis))
        scale = max(1.0, float(np.abs(h_site).max()))
        np.testing.assert_allclose(w.T @ h_site @ w, blocks, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("mu, nu, sizes", [
        (0.0, 0.0, [240, 204, 204, 168]),   # both n_d parities: 1<->3 and 2<->4 swaps
        (0.7, 0.0, [444, 372]),             # the n_d13 parity: (816 +- 72)/2
        (0.0, -0.4, [444, 372]),            # the n_d24 parity
    ])
    def test_detuned_blocks_at_n15_follow_the_swap_parities(self, mu, nu, sizes):
        params = ModelParameters.integrable_set(u=3.0, j=1.0, mu=mu, nu=nu, u0=0.5)
        params = ModelParameters(**{**params.to_dict(), "u13": 0.6, "u24": 0.6})
        operator = build_mode_hamiltonian(params, enumerate_basis(15))
        assert [indices.shape[1] for indices, _ in operator.blocks for _ in indices] == sizes

    def test_non_integrable_couplings_rejected(self, basis3):
        broken = ModelParameters.integrable_set(u=2.0, j=1.0, u0=0.5)
        broken = ModelParameters(**{**broken.to_dict(), "u13": 0.6})
        with pytest.raises(ValueError):
            build_mode_hamiltonian(broken, NormalModes(basis3).basis)

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
        dense = evolve(state, build_full_hamiltonian(params, basis), duration)
        blocks = modes.evolve_in_modes(
            state, [(build_mode_hamiltonian(params, modes.basis), duration)])
        np.testing.assert_allclose(blocks.amplitudes, dense.amplitudes, rtol=0, atol=1e-10)


class TestMeasurement:
    def test_distribution_sums_to_one(self, basis3):
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = random_state(basis3, rng)
            for site in range(1, 5):
                dist = measure_distribution(state, site)
                assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)

    def test_distribution_matches_brute_force(self, basis3):
        rng = np.random.default_rng(25)
        for _ in range(5):
            state = random_state(basis3, rng)
            as_dict = {occ: state.amplitudes[k] for k, occ in enumerate(basis3)}
            for site in range(1, 5):
                ours = dict(measure_distribution(state, site))
                reference = site_distribution(as_dict, site)
                assert set(ours) <= set(reference)
                for outcome, probability in reference.items():
                    assert ours.get(outcome, 0.0) == pytest.approx(
                        probability, abs=1e-12)

    def test_fock_state_is_deterministic(self, basis3):
        state = QuantumState.from_fock(basis3, (0, 2, 1, 0))
        assert measure_distribution(state, 2) == [(2, pytest.approx(1.0))]
        record = project(state, 2, 2)
        assert record.probability == pytest.approx(1.0)

    def test_projection_support_and_normalization(self, basis3):
        rng = np.random.default_rng(29)
        state = random_state(basis3, rng)
        record = project(state, 3, 1)
        assert record.post_state.norm() == pytest.approx(1.0, abs=1e-12)
        occ = basis3.occupations[:, 2]
        off_support = record.post_state.amplitudes[occ != 1]
        np.testing.assert_allclose(off_support, 0.0)
        expected = sum(p for r, p in measure_distribution(state, 3) if r == 1)
        assert record.probability == pytest.approx(expected, abs=1e-12)

    def test_impossible_outcome_rejected(self, basis3):
        state = QuantumState.from_fock(basis3, (3, 0, 0, 0))
        with pytest.raises(ValueError):
            project(state, 2, 3)

    def test_projections_exhaust_the_state(self, basis3):
        rng = np.random.default_rng(31)
        state = random_state(basis3, rng)
        total = sum(
            project(state, 1, outcome).probability
            for outcome, _ in measure_distribution(state, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)
