"""The block operator, conserved charges, derived band scales and the oracle's references."""

import math

import numpy as np
import pytest

from noonring.dynamics import NormalModes
from noonring.fock import enumerate_basis
from noonring.model import HermitianOperator, ModelParameters, derived_scales, diagonal_band_energy

from conftest import mode_matrix
from oracle import (
    apply_effective_charges,
    apply_effective_sq,
    charge_matrix,
    commutator_norm,
    detuning_operator,
    hamiltonian_matrix,
    operator_matrix,
    sector_states,
)


def random_integrable(rng):
    return ModelParameters.integrable_set(
        u=float(rng.uniform(1.0, 6.0)),
        j=float(rng.uniform(0.2, 2.0)),
        u0=float(rng.uniform(0.0, 2.0)),
    )


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


def two_blocks(basis, matrix):
    """Blocks `matrix` and `matrix` + 1 on the two halves of `basis` (one block size)."""
    half = basis.size // 2
    indices = np.arange(basis.size).reshape(2, half)
    return [(indices, np.stack([matrix, matrix + np.eye(half)]))]


class TestHermitianOperator:
    def test_rejects_non_hermitian(self, basis2):
        matrix = np.zeros((len(basis2) // 2, len(basis2) // 2))
        matrix[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(basis2, two_blocks(basis2, matrix))

    def test_rejects_wrong_shape(self, basis2):
        with pytest.raises(ValueError, match="blocks hold 3 states"):
            HermitianOperator(basis2, [(np.arange(3)[None], np.eye(3)[None])])

    def test_eigensystem_cached_and_correct(self, basis2):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(len(basis2) // 2, len(basis2) // 2))
        op = HermitianOperator(basis2, two_blocks(basis2, raw + raw.T))
        (values, vectors), = op.eigensystem()   # one pair: both blocks have one size
        assert op.eigensystem()[0][0] is values  # cached, not recomputed
        (_, matrices), = op.blocks
        np.testing.assert_allclose(
            matrices @ vectors, vectors * values[:, None, :], atol=1e-12)

    def test_eigenvalues_alone_cache_no_eigenvectors(self, basis3, monkeypatch):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(len(basis3) // 2, len(basis3) // 2))
        op = HermitianOperator(basis3, two_blocks(basis3, raw + raw.T))
        values = op.eigenvalues()
        assert op._eigensystem is None
        cached = np.sort(op.eigensystem()[0][0].ravel())
        np.testing.assert_allclose(values, cached, atol=1e-10)

        def no_eigvalsh(matrices):
            raise AssertionError("eigvalsh called with the eigensystem cached")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        np.testing.assert_array_equal(op.eigenvalues(), cached)  # cached values reused

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_before_lapack(self, basis2, bad):
        matrix = np.eye(len(basis2) // 2)
        matrix[1, 1] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            HermitianOperator(basis2, two_blocks(basis2, matrix))
        unchecked = HermitianOperator(basis2, two_blocks(basis2, matrix), check=False)
        with pytest.raises(ArithmeticError, match="non-finite"):
            unchecked.eigensystem()
        with pytest.raises(ArithmeticError, match="non-finite"):
            unchecked.eigenvalues()


class TestOracleAgreement:
    def test_oracle_enumeration_matches_size(self):
        assert len(sector_states(5)) == math.comb(5 + 3, 3)
        assert sector_states(5) == list(enumerate_basis(5))   # FockBasis order


class TestCharges:
    @pytest.mark.parametrize("which", ["Q1", "Q2"])
    def test_charge_eigenvalues_are_integers(self, basis3, which):
        # In the normal modes of the package, Q1 = n_d13 and Q2 = n_d24.
        modes = NormalModes(basis3)
        w = mode_matrix(modes).real
        n_d = modes.basis.occupations[:, {"Q1": 2, "Q2": 3}[which]]
        np.testing.assert_allclose(
            w.T @ charge_matrix(3, which) @ w, np.diag(n_d), rtol=0, atol=1e-12)

    def test_charges_commute_with_each_other(self):
        assert commutator_norm(charge_matrix(3, "Q1"), charge_matrix(3, "Q2")) < 1e-12

    def test_integrable_hamiltonian_conserves_charges(self):
        rng = np.random.default_rng(17)
        q1, q2 = charge_matrix(3, "Q1"), charge_matrix(3, "Q2")
        for _ in range(8):
            h = hamiltonian_matrix(3, random_integrable(rng).to_dict())
            assert commutator_norm(h, q1) < 1e-12
            assert commutator_norm(h, q2) < 1e-12

    def test_fields_break_one_charge_each(self):
        params = ModelParameters.integrable_set(u=2.0, j=1.0, mu=0.5)
        h = hamiltonian_matrix(3, params.to_dict())
        assert commutator_norm(h, charge_matrix(3, "Q1")) < 1e-12  # mu couples sites 2-4 only
        assert commutator_norm(h, charge_matrix(3, "Q2")) > 1e-3

    def test_detuned_couplings_break_charges(self):
        params = ModelParameters.integrable_set(u=2.0, j=1.0)
        broken = ModelParameters(**{**params.to_dict(), "u13": params.u13 + 0.5})
        h = hamiltonian_matrix(3, broken.to_dict())
        assert commutator_norm(h, charge_matrix(3, "Q1")) > 1e-3


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
            diag = np.diag(hamiltonian_matrix(n_total, frozen.to_dict()))
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
        charges = operator_matrix(
            n_total, lambda state: apply_effective_charges(state, n_total, scales.omega))
        sq = operator_matrix(
            n_total, lambda state: apply_effective_sq(state, m_occ, p_occ, scales.j, scales.u))
        occ = basis.occupations
        half = np.nonzero((occ[:, 0] + occ[:, 2]) == m_occ)[0]
        sub_charges = charges[np.ix_(half, half)]
        sub_sq = sq[np.ix_(half, half)]
        shift = (sub_sq - sub_charges)[0, 0]
        np.testing.assert_allclose(
            sub_sq - shift * np.eye(half.size), sub_charges, atol=1e-12)
