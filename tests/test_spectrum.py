"""Band structure of the integrable spectrum and effective-dynamics accuracy."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noonring import spectrum
from noonring.fock import enumerate_basis
from noonring.model import ModelParameters, NormalModes, _hop_blocks, build_mode_hamiltonian
from noonring.protocols import ProtocolConfig, band_trace
from noonring.spectrum import (
    BandsUnresolvedError,
    _solved_blocks,
    assign_bands,
    predicted_band_sizes,
    sweep_spectrum,
)

from oracle import hamiltonian_matrix


def dense_spectrum(basis, ratio, mu=0.0, nu=0.0):
    """Sorted eigenvalues of the dense site-basis H, minus the constant C."""
    params = ModelParameters.integrable_set(u=ratio, j=1.0, mu=mu, nu=nu)
    n = basis.n_total
    constant = (params.u0 + params.u12) * n**2 / 4.0 - params.u0 * n / 2.0
    return np.linalg.eigvalsh(hamiltonian_matrix(n, params.to_dict())) - constant


class TestBandCombinatorics:
    def test_band_splits(self):
        def splits(n_total):
            return [split for split, _ in predicted_band_sizes(n_total)]
        assert splits(3) == [(0, 3), (1, 2)]
        assert splits(4) == [(0, 4), (1, 3), (2, 2)]
        assert splits(15) == [(m, 15 - m) for m in range(8)]

    @pytest.mark.parametrize("n_total,sizes", [
        (3, [8, 12]),
        (4, [10, 16, 9]),
        (5, [12, 20, 24]),
        (15, [32, 60, 84, 104, 120, 132, 140, 144]),
    ])
    def test_predicted_sizes_fill_the_sector(self, n_total, sizes):
        predicted = predicted_band_sizes(n_total)
        assert [size for _, size in predicted] == sizes
        assert sum(sizes) == len(enumerate_basis(n_total))

    def test_self_paired_split_is_halved(self):
        predicted = dict(predicted_band_sizes(4))
        assert predicted[(2, 2)] == 9  # (M+1)(P+1), not doubled


class TestSweep:
    def test_shape_and_sorting(self, basis3):
        grid = np.linspace(0.5, 30.0, 7)
        eigenvalues = sweep_spectrum(basis3, grid)
        assert eigenvalues.shape == (7, len(basis3))
        assert np.all(np.diff(eigenvalues, axis=1) >= -1e-12)


def band_constant(params, n_total):
    return (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0


def fields(mu, nu):
    """The couplings of the blocks a sweep cuts: U0 = U12 = 0, J = 1 and the fields."""
    return ModelParameters.integrable_set(u=0.0, j=1.0, mu=mu, nu=nu)


def copies(indices):
    """Blocks one matrix of an entry stands for: 2 for a block held with its ring-rotation
    image (indices of shape (size, 2)), else 1."""
    return indices.ndim - 1


def every_block_eigvalsh(h):
    """The sorted eigvalsh values of every block of `h`, one block at a time; a block held
    with its ring-rotation image counts twice."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(m) for indices, ms in h.blocks
                                   for m in ms for _ in range(copies(indices))]))


def every_block_eigh(h):
    """The sorted eigh values of every block of `h`, a paired one twice (`h.rows` counts
    the images' rows)."""
    return np.sort(np.concatenate([np.tile(values.ravel(), rows // values.size)
                                   for (values, _), rows in zip(h.eigensystem(), h.rows)]))


class TestRotationPairs:
    """Without fields only the blocks with Q1 <= Q2 are solved; the values stay those of
    every block, bit for bit."""

    @pytest.mark.parametrize("n_total", [15, 21])
    def test_default_grid_matches_every_block(self, n_total):
        basis = enumerate_basis(n_total)
        grid = np.linspace(0.0, 25.0, 40)   # the [spectrum] defaults
        for row, ratio in zip(sweep_spectrum(basis, grid), grid):
            params = ModelParameters.integrable_set(u=float(ratio), j=1.0)
            h = build_mode_hamiltonian(params, NormalModes(basis))
            np.testing.assert_array_equal(
                row, every_block_eigvalsh(h) - band_constant(params, n_total))

    @pytest.mark.parametrize("mu, solved", [
        (0.0, 30),    # of the 55 (Q1, Q2) blocks, those with Q1 <= Q2
        (0.5, 10),    # every Q1 block
    ])
    def test_a_field_solves_every_block(self, mu, solved):
        basis = enumerate_basis(9)
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=np.linalg.eigvalsh) as calls:
            sweep_spectrum(basis, [7.5], mu=mu)
        assert sum(call.args[0].shape[1] for call in calls.call_args_list) == solved
        # the copies stand for every block once
        terms = NormalModes(basis)
        assert sum(int(count.sum()) for _, _, count in _solved_blocks(terms, mu)) == sum(
            len(indices) * copies(indices)
            for indices, _ in build_mode_hamiltonian(fields(mu, 0.0), terms).blocks)


class TestStackedSweep:
    """Stacks of grid points give the eigenvalues of a point-by-point sweep, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_total=st.sampled_from([3, 5]),
        points=st.integers(1, 9),
        per_stack=st.integers(1, 4),
        mu=st.one_of(st.just(0.0), st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.01)),
    )
    def test_matches_point_by_point(self, n_total, points, per_stack, mu):
        basis = enumerate_basis(n_total)
        grid = np.linspace(0.0, 30.0, points)
        solved = _solved_blocks(NormalModes(basis), mu)   # a stack's size counts the solved blocks
        eigvalsh = np.linalg.eigvalsh
        with mock.patch.object(spectrum, "STACK_BYTES",
                               per_stack * max(matrices.nbytes for _, matrices, _ in solved)), \
                mock.patch.object(np.linalg, "eigvalsh", side_effect=eigvalsh) as calls:
            eigenvalues = sweep_spectrum(basis, grid, mu=mu)
        assert calls.call_count == len(solved) * -(-points // per_stack)   # per size per stack
        for row, ratio in zip(eigenvalues, grid):
            params = ModelParameters.integrable_set(u=float(ratio), j=1.0, mu=mu)
            h = build_mode_hamiltonian(params, NormalModes(basis))
            constant = band_constant(params, n_total)
            np.testing.assert_array_equal(row, every_block_eigvalsh(h) - constant)
            # eigh (with eigenvectors) runs another LAPACK path: equal to roundoff only.
            np.testing.assert_allclose(row, every_block_eigh(h) - constant,
                                       rtol=0, atol=1e-12 * max(1.0, abs(constant)))

    def test_memory_does_not_grow_with_the_point_count(self):
        basis = enumerate_basis(21)          # dim 2024: 18 points per stack
        overhead = []
        for points in (40, 400):
            tracemalloc.start()
            try:
                eigenvalues = sweep_spectrum(basis, np.linspace(0.0, 25.0, points))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            overhead.append(peak - eigenvalues.nbytes)   # beyond the result itself
        assert max(overhead) < 2e6
        assert abs(overhead[1] - overhead[0]) < 2e5


class TestBlockSpectrum:
    """The normal-mode block spectrum against the dense site-basis oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_total=st.integers(0, 6),
        ratio=st.floats(0.0, 40.0),
        mu=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    )
    def test_matches_dense(self, n_total, ratio, mu):
        basis = enumerate_basis(n_total)
        blocks = sweep_spectrum(basis, [ratio], mu=mu)[0]
        dense = dense_spectrum(basis, ratio, mu=mu)
        assert np.all(np.abs(blocks - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense)))

    def test_entries_below_eps_of_the_largest_are_zeroed(self, basis5):
        """Entries whose squares underflow once cost LAPACK's eigenvalue-only QL 1e-7 of
        accuracy (`_solved_blocks`): the sweep zeroes every entry below eps of the largest."""
        hops = np.concatenate([
            hops.ravel() for _, hops, _ in _solved_blocks(NormalModes(basis5), 1.9e-159)])
        assert np.abs(hops[hops != 0.0]).min() >= np.finfo(float).eps * np.abs(hops).max()

    def test_matches_dense_at_n15(self, basis15):
        grid = np.array([0.0, 12.5, 25.0])
        eigenvalues = sweep_spectrum(basis15, grid)
        for row, ratio in zip(eigenvalues, grid):
            np.testing.assert_allclose(row, dense_spectrum(basis15, ratio), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mu, nu, count, largest", [
        (0.0, 0.0, 21, 6),      # (q1, q2) blocks of size N - q1 - q2 + 1
        (0.4, 0.0, 6, 21),      # q1 blocks of size (N - q1 + 2)(N - q1 + 1)/2
        (0.0, -0.3, 6, 21),
        (0.4, -0.3, 1, 56),     # both fields: one block, the whole sector
    ])
    def test_blocks_follow_the_conserved_charges(self, basis5, mu, nu, count, largest):
        blocks = _hop_blocks(NormalModes(basis5), fields(mu, nu))[0]
        sizes = [indices.shape[1] for indices in blocks
                 for _ in range(len(indices) * copies(indices))]
        assert (len(sizes), max(sizes), sum(sizes)) == (count, largest, len(basis5))
        params = ModelParameters.integrable_set(u=7.5, j=1.0, mu=mu, nu=nu)
        spectrum = every_block_eigvalsh(build_mode_hamiltonian(params, NormalModes(basis5)))
        np.testing.assert_allclose(spectrum - band_constant(params, 5),
                                   dense_spectrum(basis5, 7.5, mu=mu, nu=nu), rtol=0, atol=1e-9)

    def test_n21_sweep_builds_no_dense_matrix(self):
        basis = enumerate_basis(21)          # dim 2024: one dense matrix is 32.8 MB
        tracemalloc.start()
        try:
            sweep_spectrum(basis, [25.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestAssignBands:
    @pytest.mark.parametrize("n_total", [3, 4, 5])
    def test_deep_bands_have_exact_counts(self, n_total):
        basis = enumerate_basis(n_total)
        eigenvalues = sweep_spectrum(basis, np.array([30.0]))
        margin = assign_bands(eigenvalues[0], n_total)
        assert 3.0 < margin < np.inf

    def test_returns_the_smallest_gap_over_spread(self):
        # N = 3: bands of 8 and 12 levels, spreads 1 and 2, gap 10
        levels = np.concatenate([np.linspace(0.0, 1.0, 8), np.linspace(11.0, 13.0, 12)])
        assert assign_bands(levels[::-1], 3) == 5.0
        close = np.concatenate([np.linspace(0.0, 1.0, 8), np.linspace(5.0, 9.0, 12)])
        with pytest.raises(BandsUnresolvedError, match=r"gap 4 <= 3 x spread 4"):
            assign_bands(close, 3)
        flat = np.repeat([0.0, 1.0], [8, 12])   # no spread beside the gap
        assert assign_bands(flat, 3) == np.inf

    def test_shallow_spectrum_raises(self, basis5):
        eigenvalues = sweep_spectrum(basis5, np.array([0.5]))
        with pytest.raises(BandsUnresolvedError):
            assign_bands(eigenvalues[0], 5)

    def test_gap_factor_tightens_acceptance(self, basis3):
        eigenvalues = sweep_spectrum(basis3, np.array([30.0]))[0]
        assign_bands(eigenvalues, 3)
        with mock.patch.object(spectrum, "GAP_FACTOR", 1e6), \
                pytest.raises(BandsUnresolvedError):
            assign_bands(eigenvalues, 3)

    def test_wrong_level_count_rejected(self):
        with pytest.raises(ValueError):
            assign_bands(np.linspace(0.0, 1.0, 7), 3)


class TestEffectiveDynamics:
    """`protocols.band_trace` on |1,4,0,0> at N = 5; row 5 is |<full(t)|eff(t)>|."""

    @staticmethod
    def deficits(basis, u, times):
        return 1.0 - band_trace(ProtocolConfig(1, 4, u=u, j=1.0, mu=1.0, nu=1.0), basis, times)[5]

    def test_deficit_starts_at_zero_and_stays_small(self, basis5):
        deficits = self.deficits(basis5, 50.0, np.linspace(0.0, 5.0, 7))
        assert deficits[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(deficits < 0.05)

    def test_deficit_grows_with_j_over_u(self, basis5):
        times = np.linspace(0.0, 3.0, 5)
        assert self.deficits(basis5, 100.0, times).max() < self.deficits(basis5, 10.0, times).max()

    def test_rows_at_t_zero(self, basis5):
        trace = band_trace(ProtocolConfig(1, 4, u=50.0, j=1.0, mu=1.0, nu=1.0), basis5, [0.0])
        # |1,4,0,0> itself, a quarter of the uber-NOON state, and the effective evolution.
        np.testing.assert_allclose(trace[:, 0], [1.0, 0.0, 0.0, 0.0, 0.25, 1.0], atol=1e-15)
