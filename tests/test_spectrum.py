"""Band structure of the integrable spectrum and effective-dynamics accuracy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noonring.fock import enumerate_basis
from noonring.model import ModelParameters
from noonring.spectrum import (
    BandsUnresolvedError,
    _hop_blocks,
    assign_bands,
    band_splits,
    compare_effective,
    effective_deficits,
    predicted_band_sizes,
    sweep_spectrum,
)

from oracle import hamiltonian_matrix


def dense_spectrum(basis, ratio, mu=0.0, nu=0.0, u0=0.0):
    """Sorted eigenvalues of the dense site-basis H, minus the constant C."""
    params = ModelParameters.integrable_set(u=ratio, j=1.0, mu=mu, nu=nu, u0=u0)
    n = basis.n_total
    constant = (params.u0 + params.u12) * n**2 / 4.0 - params.u0 * n / 2.0
    return np.linalg.eigvalsh(hamiltonian_matrix(n, params.to_dict())) - constant


class TestBandCombinatorics:
    def test_band_splits(self):
        assert band_splits(3) == [(0, 3), (1, 2)]
        assert band_splits(4) == [(0, 4), (1, 3), (2, 2)]
        assert band_splits(15) == [(m, 15 - m) for m in range(8)]

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
        sweep = sweep_spectrum(basis3, grid)
        assert sweep.eigenvalues.shape == (7, len(basis3))
        assert np.all(np.diff(sweep.eigenvalues, axis=1) >= -1e-12)
        assert sweep.n_total == 3

    def test_constant_subtraction_removes_u0_dependence(self, basis3):
        grid = np.array([25.0])
        base = sweep_spectrum(basis3, grid, u0=0.0).eigenvalues
        lifted = sweep_spectrum(basis3, grid, u0=7.0).eigenvalues
        np.testing.assert_allclose(base, lifted, atol=1e-9)


class TestBlockSpectrum:
    """The normal-mode block spectrum against the dense site-basis oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_total=st.integers(0, 6),
        ratio=st.floats(0.0, 40.0),
        u0=st.floats(-5.0, 5.0),
        mu=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        nu=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    )
    def test_matches_dense(self, n_total, ratio, u0, mu, nu):
        basis = enumerate_basis(n_total)
        blocks = sweep_spectrum(basis, [ratio], mu=mu, nu=nu, u0=u0).eigenvalues[0]
        dense = dense_spectrum(basis, ratio, mu=mu, nu=nu, u0=u0)
        assert np.all(np.abs(blocks - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense)))

    def test_matches_dense_at_n15(self, basis15):
        grid = np.array([0.0, 12.5, 25.0])
        sweep = sweep_spectrum(basis15, grid)
        for row, ratio in zip(sweep.eigenvalues, grid):
            np.testing.assert_allclose(row, dense_spectrum(basis15, ratio), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mu, nu, count, largest", [
        (0.0, 0.0, 21, 6),      # (q1, q2) blocks of size N - q1 - q2 + 1
        (0.4, 0.0, 6, 21),      # q1 blocks of size (N - q1 + 2)(N - q1 + 1)/2
        (0.0, -0.3, 6, 21),
        (0.4, -0.3, 1, 56),     # both fields: one block, the whole sector
    ])
    def test_blocks_follow_the_conserved_charges(self, basis5, mu, nu, count, largest):
        blocks = _hop_blocks(basis5, mu, nu)
        sizes = [indices.shape[1] for indices, _ in blocks for _ in indices]
        assert (len(sizes), max(sizes), sum(sizes)) == (count, largest, len(basis5))
        spectrum = sweep_spectrum(basis5, [7.5], mu=mu, nu=nu).eigenvalues[0]
        np.testing.assert_allclose(
            spectrum, dense_spectrum(basis5, 7.5, mu=mu, nu=nu), rtol=0, atol=1e-9)

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
        sweep = sweep_spectrum(basis, np.array([30.0]))
        assignment = assign_bands(sweep.eigenvalues[0], n_total)
        assert list(assignment.sizes) == [
            size for _, size in predicted_band_sizes(n_total)]
        assert list(assignment.labels) == [
            label for label, _ in predicted_band_sizes(n_total)]

    def test_shallow_spectrum_raises(self, basis5):
        sweep = sweep_spectrum(basis5, np.array([0.5]))
        with pytest.raises(BandsUnresolvedError):
            assign_bands(sweep.eigenvalues[0], 5)

    def test_gap_factor_tightens_acceptance(self, basis3):
        sweep = sweep_spectrum(basis3, np.array([30.0]))
        eigenvalues = sweep.eigenvalues[0]
        assign_bands(eigenvalues, 3, gap_factor=3.0)
        with pytest.raises(BandsUnresolvedError):
            assign_bands(eigenvalues, 3, gap_factor=1e6)

    def test_wrong_level_count_rejected(self):
        with pytest.raises(ValueError):
            assign_bands(np.linspace(0.0, 1.0, 7), 3)


class TestEffectiveDynamics:
    def test_deficit_starts_at_zero_and_stays_small(self, basis5):
        params = ModelParameters.integrable_set(u=50.0, j=1.0)
        times = np.linspace(0.0, 5.0, 7)
        deficits = effective_deficits(basis5, 1, 4, params, times)
        assert deficits[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(deficits < 0.05)
        assert compare_effective(basis5, 1, 4, params, times) == pytest.approx(
            float(deficits.max()))

    def test_deficit_grows_with_j_over_u(self, basis5):
        times = np.linspace(0.0, 3.0, 5)
        tight = compare_effective(
            basis5, 1, 4, ModelParameters.integrable_set(u=100.0, j=1.0), times)
        loose = compare_effective(
            basis5, 1, 4, ModelParameters.integrable_set(u=10.0, j=1.0), times)
        assert tight < loose

    def test_non_integrable_couplings_rejected(self, basis5):
        broken = ModelParameters.integrable_set(u=50.0, j=1.0)
        broken = ModelParameters(**{**broken.to_dict(), "u13": 0.1})
        with pytest.raises(ValueError, match="normal-mode blocks"):
            effective_deficits(basis5, 1, 4, broken, np.linspace(0.0, 1.0, 3))
