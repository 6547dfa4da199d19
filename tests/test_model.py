"""Hamiltonian assembly, conserved charges, and derived band scales."""

import math

import numpy as np
import pytest

from noonring.fock import enumerate_basis, hop_matrix
from noonring.model import (
    HermitianOperator,
    ModelParameters,
    build_charge,
    build_effective_hamiltonian_charges,
    build_effective_hamiltonian_sq,
    build_full_hamiltonian,
    derived_scales,
    diagonal_band_energy,
    frobenius_commutator,
)

from oracle import detuning_operator, hamiltonian_matrix, sector_states


def random_integrable(rng, with_fields=False):
    params = ModelParameters.integrable_set(
        u=float(rng.uniform(1.0, 6.0)),
        j=float(rng.uniform(0.2, 2.0)),
        u0=float(rng.uniform(0.0, 2.0)),
    )
    if with_fields:
        params = params.with_fields(
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
    return params


def random_generic(rng):
    vals = {k: float(rng.uniform(0.5, 5.0))
            for k in ("u0", "u12", "u13", "u14", "u23", "u24", "u34")}
    return ModelParameters(j=float(rng.uniform(0.2, 2.0)),
                           mu=float(rng.uniform(-1.0, 1.0)),
                           nu=float(rng.uniform(-1.0, 1.0)), **vals)


class TestModelParameters:
    def test_integrable_set_satisfies_condition(self):
        params = ModelParameters.integrable_set(u=2.5, j=1.0, u0=0.3)
        assert params.integrable()
        assert params.coupling_u() == pytest.approx(2.5)
        assert params.u12 == pytest.approx(0.3 + 10.0)

    def test_generic_couplings_not_integrable(self):
        params = ModelParameters.integrable_set(u=2.5, j=1.0)
        broken = ModelParameters(**{**params.to_dict(), "u13": params.u13 + 0.1})
        assert not broken.integrable()

    def test_dict_round_trip(self):
        params = ModelParameters.integrable_set(u=1.0, j=0.5, mu=0.1, nu=0.2)
        assert ModelParameters.from_dict(params.to_dict()) == params

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            ModelParameters.from_dict({"u0": 1.0, "bogus": 2.0})
        with pytest.raises(ValueError):
            ModelParameters.from_dict({"u0": 1.0})

    def test_with_fields_preserves_interactions(self):
        params = ModelParameters.integrable_set(u=1.0, j=0.5)
        lifted = params.with_fields(0.7, -0.2)
        assert lifted.mu == 0.7 and lifted.nu == -0.2
        assert lifted.u12 == params.u12 and lifted.j == params.j


class TestHermitianOperator:
    def test_rejects_non_hermitian(self, basis2):
        matrix = np.zeros((len(basis2), len(basis2)))
        matrix[0, 1] = 1.0
        with pytest.raises(ValueError):
            HermitianOperator(basis2, matrix)

    def test_rejects_wrong_shape(self, basis2):
        with pytest.raises(ValueError):
            HermitianOperator(basis2, np.eye(3))

    def test_eigensystem_cached_and_correct(self, basis2):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(len(basis2), len(basis2)))
        op = HermitianOperator(basis2, raw + raw.T)
        (values, vectors), = op.eigensystem()   # a dense matrix is one block
        assert op.eigensystem()[0][0] is values  # cached, not recomputed
        np.testing.assert_allclose(
            op.matrix @ vectors, vectors @ np.diag(values), atol=1e-12)

    def test_eigenvalues_alone_cache_no_eigenvectors(self, basis3):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(len(basis3), len(basis3)))
        op = HermitianOperator(basis3, raw + raw.T)
        values = op.eigenvalues()
        assert op._eigensystem is None
        np.testing.assert_allclose(values, op.eigensystem()[0][0], atol=1e-10)
        assert op.eigenvalues() is op.eigensystem()[0][0]  # cached values reused

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_before_lapack(self, basis2, bad):
        matrix = np.eye(len(basis2))
        matrix[1, 1] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            HermitianOperator(basis2, matrix)
        unchecked = HermitianOperator(basis2, matrix, check=False)
        with pytest.raises(ArithmeticError, match="non-finite"):
            unchecked.eigensystem()
        with pytest.raises(ArithmeticError, match="non-finite"):
            unchecked.eigenvalues()


class TestOracleAgreement:
    @pytest.mark.parametrize("n_total", [2, 3])
    def test_matrix_matches_brute_force(self, n_total):
        rng = np.random.default_rng(n_total)
        basis = enumerate_basis(n_total)
        for make in (random_integrable, random_generic):
            params = make(rng)
            ours = build_full_hamiltonian(params, basis).matrix
            states, reference = hamiltonian_matrix(n_total, params.to_dict())
            # The oracle sorts its own enumeration; match columns by state.
            order = [basis.index_of(occ) for occ in states]
            np.testing.assert_allclose(
                ours[np.ix_(order, order)], reference, atol=1e-12)

    def test_oracle_enumeration_matches_size(self):
        assert len(sector_states(5)) == math.comb(5 + 3, 3)


class TestCharges:
    @pytest.mark.parametrize("which", ["Q1", "Q2"])
    def test_charge_eigenvalues_are_integers(self, basis3, which):
        values = build_charge(basis3, which).eigensystem()[0][0]
        np.testing.assert_allclose(values, np.round(values), atol=1e-12)
        assert values.min() == pytest.approx(0.0, abs=1e-12)
        assert values.max() == pytest.approx(3.0, abs=1e-12)

    def test_bad_charge_name(self, basis2):
        with pytest.raises(ValueError):
            build_charge(basis2, "Q3")

    def test_charges_commute_with_each_other(self, basis3):
        q1 = build_charge(basis3, "Q1").matrix
        q2 = build_charge(basis3, "Q2").matrix
        assert frobenius_commutator(q1, q2) < 1e-12

    def test_integrable_hamiltonian_conserves_charges(self, basis3):
        rng = np.random.default_rng(17)
        q1 = build_charge(basis3, "Q1").matrix
        q2 = build_charge(basis3, "Q2").matrix
        for _ in range(8):
            h = build_full_hamiltonian(random_integrable(rng), basis3).matrix
            assert frobenius_commutator(h, q1) < 1e-12
            assert frobenius_commutator(h, q2) < 1e-12

    def test_fields_break_one_charge_each(self, basis3):
        params = ModelParameters.integrable_set(u=2.0, j=1.0, mu=0.5)
        h = build_full_hamiltonian(params, basis3).matrix
        q1 = build_charge(basis3, "Q1").matrix
        q2 = build_charge(basis3, "Q2").matrix
        assert frobenius_commutator(h, q1) < 1e-12  # mu couples sites 2-4 only
        assert frobenius_commutator(h, q2) > 1e-3

    def test_detuned_couplings_break_charges(self, basis3):
        params = ModelParameters.integrable_set(u=2.0, j=1.0)
        broken = ModelParameters(**{**params.to_dict(), "u13": params.u13 + 0.5})
        h = build_full_hamiltonian(broken, basis3).matrix
        q1 = build_charge(basis3, "Q1").matrix
        assert frobenius_commutator(h, q1) > 1e-3


class TestDetuningOperator:
    def test_diagonal_structure(self, basis3):
        mat = detuning_operator(basis3)
        occ = basis3.occupations
        expected = occ[:, 0] * occ[:, 2] + occ[:, 1] * occ[:, 3]
        np.testing.assert_allclose(np.diag(mat), expected.astype(float))
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


class TestDerivedScales:
    def test_set1_reference_values(self, set1):
        params = ModelParameters.integrable_set(u=set1["u"], j=set1["j"])
        scales = derived_scales(params, 4, 11)
        assert scales.omega == pytest.approx(0.04251131, rel=1e-6)
        assert scales.t_m == pytest.approx(36.950076, rel=1e-6)
        assert scales.beta == 1

    def test_beta_parity(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.5)
        assert derived_scales(params, 1, 4).beta == -1  # N=5, (N+1)/2 odd
        assert derived_scales(params, 2, 5).beta == +1  # N=7, (N+1)/2 even
        assert derived_scales(params, 1, 3).beta is None  # even N

    def test_zero_tunneling_gives_infinite_time(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.0)
        assert derived_scales(params, 4, 11).t_m == math.inf

    def test_validation(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.5)
        with pytest.raises(ValueError):
            derived_scales(params, 3, 4)  # |M-P| < 2
        with pytest.raises(ValueError):
            derived_scales(ModelParameters.integrable_set(u=-1.0, j=0.5), 4, 11)


class TestDiagonalBandEnergy:
    @pytest.mark.parametrize("n_total", [3, 5])
    def test_zero_tunneling_diagonal_matches_formula(self, n_total):
        rng = np.random.default_rng(23)
        basis = enumerate_basis(n_total)
        for _ in range(5):
            params = random_integrable(rng)
            frozen = ModelParameters(**{**params.to_dict(), "j": 0.0})
            h = build_full_hamiltonian(frozen, basis).matrix
            diag = np.diag(h)
            for k, occ in enumerate(basis):
                m_occ = occ[0] + occ[2]
                p_occ = occ[1] + occ[3]
                expected = diagonal_band_energy(frozen, m_occ, p_occ)
                assert diag[k] == pytest.approx(expected, rel=1e-12)


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("m_occ,p_occ", [(1, 3), (2, 4), (1, 4)])
    def test_forms_agree_on_labeled_band_half(self, m_occ, p_occ):
        n_total = m_occ + p_occ
        basis = enumerate_basis(n_total)
        params = ModelParameters.integrable_set(u=40.0, j=1.0)
        scales = derived_scales(params, m_occ, p_occ)
        charges = build_effective_hamiltonian_charges(basis, n_total, scales).matrix
        sq = build_effective_hamiltonian_sq(basis, m_occ, p_occ, scales).matrix
        occ = basis.occupations
        half = np.nonzero((occ[:, 0] + occ[:, 2]) == m_occ)[0]
        sub_charges = charges[np.ix_(half, half)]
        sub_sq = sq[np.ix_(half, half)]
        shift = (sub_sq - sub_charges)[0, 0]
        np.testing.assert_allclose(
            sub_sq - shift * np.eye(half.size), sub_charges, atol=1e-12)

    @pytest.mark.parametrize("m_occ,p_occ", [(1, 4), (4, 11)])
    def test_sq_matches_the_dense_operator_product(self, m_occ, p_occ):
        # The operator products of the docstring, with N1 + N3 and N2 + N4 as
        # dense diagonal matrices, as the reference for the scaled form.
        basis = enumerate_basis(m_occ + p_occ)
        scales = derived_scales(
            ModelParameters.integrable_set(u=40.0, j=1.0), m_occ, p_occ)
        c_plus = scales.j**2 / (16.0 * scales.u) / (m_occ - p_occ + 1)
        c_minus = scales.j**2 / (16.0 * scales.u) / (m_occ - p_occ - 1)
        occ = basis.occupations.astype(float)
        n13, n24 = np.diag(occ[:, 0] + occ[:, 2]), np.diag(occ[:, 1] + occ[:, 3])
        two = 2.0 * np.eye(basis.size)
        x13 = hop_matrix(basis, 3, 1) + hop_matrix(basis, 1, 3)
        x24 = hop_matrix(basis, 4, 2) + hop_matrix(basis, 2, 4)
        expected = (
            c_plus * (x13 @ n24) + c_plus * ((n13 + two) @ x24)
            - c_minus * ((n24 + two) @ x13) - c_minus * (x24 @ n13)
            + (c_plus - c_minus) * (x13 @ x24)
            + c_plus * ((n13 + two) @ n24) - c_minus * (n13 @ (n24 + two))
        )
        matrix = build_effective_hamiltonian_sq(basis, m_occ, p_occ, scales).matrix
        np.testing.assert_allclose(matrix, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_singular_band_rejected(self, basis3):
        params = ModelParameters.integrable_set(u=40.0, j=1.0)
        scales = derived_scales(params, 0, 3)
        with pytest.raises(ValueError):
            build_effective_hamiltonian_sq(basis3, 1, 2, scales)

    def test_sector_mismatch_rejected(self, basis3):
        params = ModelParameters.integrable_set(u=40.0, j=1.0)
        scales = derived_scales(params, 0, 3)
        with pytest.raises(ValueError):
            build_effective_hamiltonian_charges(basis3, 5, scales)
