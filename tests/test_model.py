"""The block operator, conserved charges, the band scales and the oracle's references."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import expm

from noonring.dynamics import NormalModes, evolve
from noonring.fock import QuantumState, enumerate_basis
from noonring.model import (
    HermitianOperator,
    ModelParameters,
    _ModeTerms,
    _RingRotation,
    _sparse_mode_hamiltonian,
    build_mode_hamiltonian,
)
from noonring.protocols import FullDynamics, ProtocolConfig

from conftest import M_OCC, P_OCC, mode_matrix
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
        assert params.u13 == params.u0
        assert params.coupling_u() == pytest.approx(2.5)
        assert params.u12 == pytest.approx(0.3 + 10.0)

    def test_generic_couplings_not_integrable(self):
        params = ModelParameters.integrable_set(u=2.5, j=1.0)
        broken = replace(params, u13=params.u13 + 0.1)
        assert broken.u13 != broken.u0

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

    @pytest.mark.parametrize("positions", [[0, 0, 1, 2], [0, 1, 2, 4]])
    def test_rejects_blocks_that_miss_a_position(self, positions):
        """Four positions for four states, but not each once: `evolve` would leave the
        amplitude of the missing one unwritten."""
        with pytest.raises(ValueError, match="each basis position once"):
            HermitianOperator(enumerate_basis(1), [(np.array([positions]), np.eye(4)[None])])

    def test_eigensystem_cached_and_correct(self, basis2):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(len(basis2) // 2, len(basis2) // 2))
        op = HermitianOperator(basis2, two_blocks(basis2, raw + raw.T))
        (_, matrices), = op.blocks   # eigensystem() drops them
        (values, vectors), = op.eigensystem()   # one pair: both blocks have one size
        assert op.eigensystem()[0][0] is values  # cached, not recomputed
        np.testing.assert_allclose(
            matrices @ vectors, vectors * values[:, None, :], atol=1e-12)

    def test_one_by_one_blocks_keep_their_entries(self, basis15):
        """eigh of a 1 x 1 block gives back its entry as the value and exactly 1 as the vector."""
        rng = np.random.default_rng(5)
        entries = rng.normal(size=basis15.size) * 10.0 ** rng.integers(-8, 9, basis15.size)
        op = HermitianOperator(basis15, [(np.arange(basis15.size)[:, None], entries[:, None, None])])
        (values, vectors), = op.eigensystem()
        np.testing.assert_array_equal(values[:, 0], entries)
        np.testing.assert_array_equal(vectors, 1.0)

    def test_cached_eigensystem_calls_no_eigensolver(self, basis3, monkeypatch):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(len(basis3) // 2, len(basis3) // 2))
        op = HermitianOperator(basis3, two_blocks(basis3, raw + raw.T))
        assert op._eigensystem is None
        (_, matrices), = op.blocks   # eigensystem() drops them
        (values, _), = op.eigensystem()
        np.testing.assert_allclose(values, np.linalg.eigvalsh(matrices), atol=1e-10)

        def no_eigh(matrices):
            raise AssertionError("eigh called with the eigensystem cached")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        np.testing.assert_array_equal(op.eigensystem()[0][0], values)  # cached values reused

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_before_lapack(self, basis2, bad):
        matrix = np.eye(len(basis2) // 2)
        matrix[1, 1] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            HermitianOperator(basis2, two_blocks(basis2, matrix))
        unchecked = HermitianOperator(basis2, two_blocks(basis2, matrix), check=False)
        with pytest.raises(ArithmeticError, match="non-finite"):
            unchecked.eigensystem()


@pytest.mark.parametrize("build", [build_mode_hamiltonian, _sparse_mode_hamiltonian])
@pytest.mark.parametrize("u13", [0.0, 0.5])   # parity blocks or T's pieces; hops finite
def test_a_non_finite_diagonal_raises_at_build_time(build, u13):
    """U12 = 1e308 overflows the diagonal U12 M P alone: the block path and the sparse path
    both refuse it when H is built, before any eigensystem is asked for."""
    params = replace(ModelParameters.integrable_set(u=2.5e307, j=1.0), u13=u13)
    with pytest.raises(ArithmeticError, match="non-finite"):
        build(params, _ModeTerms(enumerate_basis(5)))


@functools.cache
def rotation_frame(n_total):
    """The mode basis's terms, and the matrix that carries a site-basis matrix into the
    basis of a field-free detuned H's blocks (psi_site = W psi_mode): T W^T at odd N, T
    the ring rotation's basis of the normal modes, and W^T at even N."""
    modes = NormalModes(enumerate_basis(n_total))
    frame = mode_matrix(modes).real.T
    if n_total % 2:
        frame = modes.terms.rotation.change(np.eye(modes.basis.size, dtype=complex)).real @ frame
    return modes.terms, frame


class TestRingRotation:
    """Field-free H off the integrable point is held at odd N in the ring rotation's basis
    T: the R = +-1 halves of the (even, even) and (odd, odd) parity blocks, and one
    (even, odd) block that acts on it and its rotation image, the (odd, even) block.  At
    even N, where R fixes the states |a,a,c,c>, it is held in the parity blocks."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_total=st.sampled_from([3, 4, 5, 15]),   # T at odd N, parity blocks at N = 4
        u=st.floats(0.5, 20.0),
        j=st.floats(0.1, 5.0),
        u0=st.floats(0.1, 5.0),
        xi=st.floats(0.01, 3.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_matches_the_block_eigensystem(self, n_total, u, j, u0, xi, sign):
        """The pieces are T H T^T, H the oracle's dense H carried into the mode basis (the
        parity blocks are H at even N), and each piece's eigensystem is its own."""
        params = ModelParameters.integrable_set(u=u, j=j, u0=u0)
        params = replace(params, u13=u0 + sign * xi)
        terms, frame = rotation_frame(n_total)
        operator = build_mode_hamiltonian(params, terms)
        assert operator.rotation is (terms.rotation if n_total % 2 else None)
        expected = frame @ hamiltonian_matrix(n_total, params.to_dict()) @ frame.T
        pieces = np.zeros_like(expected)   # each on one or two sets of T's positions
        for indices, matrices in operator.blocks:
            for positions in np.moveaxis(indices.reshape(*indices.shape[:2], -1), -1, 0):
                pieces[positions[:, :, None], positions[:, None, :]] = matrices
        np.testing.assert_allclose(pieces, expected, rtol=0,
                                   atol=1e-12 * float(np.abs(expected).max()))
        for (_, matrices), (values, vectors) in zip(operator.blocks, operator.eigensystem()):
            scale = max(1.0, float(np.abs(matrices).max()))
            assert np.all(np.diff(values, axis=-1) >= 0.0)   # ascending, as eigh gives them
            residual = matrices @ vectors - vectors * values[:, None, :]
            assert np.abs(residual).max() <= 1e-12 * scale
            identity = np.broadcast_to(np.eye(values.shape[-1]), vectors.shape)
            np.testing.assert_allclose(vectors.swapaxes(-1, -2) @ vectors, identity,
                                       rtol=0, atol=1e-12)

    def test_pieces_at_n15(self):
        """Halves of 120 and 84 and one 204 block, stored once, for the parity blocks
        240/204/204/168 of the dense 816."""
        params = replace(ModelParameters.integrable_set(u=3.0, j=1.0, u0=0.5), u13=0.6)
        operator = build_mode_hamiltonian(params, _ModeTerms(enumerate_basis(15)))
        shapes = [(indices.shape, matrices.shape) for indices, matrices in operator.blocks]
        assert shapes == [((2, 120), (2, 120, 120)), ((1, 204, 2), (1, 204, 204)),
                          ((2, 84), (2, 84, 84))]

    @pytest.mark.parametrize("n_total", [3, 4, 5, 15])
    def test_the_change_of_basis_is_orthogonal(self, n_total):
        modes = enumerate_basis(n_total)
        if n_total % 2 == 0:   # R fixes the states |a,a,c,c>: no T
            with pytest.raises(ValueError, match="odd N"):
                _RingRotation(_ModeTerms(modes))
            return
        rotation = _RingRotation(_ModeTerms(modes))
        t = rotation.change(np.eye(modes.size, dtype=complex))
        assert not t.imag.any()
        np.testing.assert_allclose(t.real @ t.real.T, np.eye(modes.size), rtol=0, atol=1e-15)
        np.testing.assert_allclose(rotation.change(t, back=True), np.eye(modes.size),
                                   rtol=0, atol=1e-15)
        state = np.random.default_rng(n_total).normal(size=(modes.size, 2)) @ [1.0, 1j]
        np.testing.assert_allclose(rotation.change(state), t @ state, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("u13, mu", [(0.5, 0.0), (0.6, 0.7)])
    def test_integrable_or_fielded_hamiltonians_keep_one_eigh_per_block_size(self, u13, mu):
        params = ModelParameters.integrable_set(u=3.0, j=1.0, mu=mu, u0=0.5)
        operator = build_mode_hamiltonian(replace(params, u13=u13), _ModeTerms(enumerate_basis(5)))
        assert operator.rotation is None

    def test_a_build_at_n31_holds_little_beyond_its_pieces(self):
        """A field-free detuned H at N = 31 (dim 5,984) goes straight into T's pieces, 36 MB:
        no parity block and no n x n array is allocated on the way."""
        params = replace(ModelParameters.integrable_set(u=75.876, j=24.886), u13=0.25)
        terms = _ModeTerms(enumerate_basis(31))
        tracemalloc.start()
        try:
            operator = build_mode_hamiltonian(params, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(matrices.nbytes for _, matrices in operator.blocks)
        assert kept > 35e6 and peak <= 1.3 * kept


@functools.cache
def mode_frame(n_total):
    """The NormalModes of the sector, and W with psi_site = W psi_mode."""
    modes = NormalModes(enumerate_basis(n_total))
    return modes, mode_matrix(modes).real


def site_rotation(basis):
    """R on the site basis, a permutation: |n1, n2, n3, n4> -> |n4, n1, n2, n3>, each boson
    moved one site on (1 -> 2 -> 3 -> 4 -> 1)."""
    images = [basis.index_of(occupations) for occupations in basis.occupations[:, [3, 0, 1, 2]]]
    rotation = np.zeros((basis.size, basis.size))
    rotation[images, np.arange(basis.size)] = 1.0
    return rotation


def mode_rotation(terms):
    """R on the mode basis from `terms`: R|x> = sign[x] |partner[x]>."""
    rotation = np.zeros((terms.basis.size, terms.basis.size))
    rotation[terms.partner, np.arange(terms.basis.size)] = terms.sign
    return rotation


def dense_blocks(operator):
    """The dense matrix of an operator's blocks, each on one or two sets of positions."""
    dense = np.zeros((operator.basis.size, operator.basis.size))
    for indices, matrices in operator.blocks:
        for positions in np.moveaxis(indices.reshape(*indices.shape[:2], -1), -1, 0):
            dense[positions[:, :, None], positions[:, None, :]] = matrices
    return dense


MU_FORM = ModelParameters.integrable_set(u=75.876, j=24.886, mu=20.87)   # set1's mu pulse
NU_PULSE = MU_FORM.with_fields(mu=0.0, nu=-20.87)   # its rotation, set1's inverted nu pulse


def random_state(basis, seed, *columns):
    """A normalized random state, or a stack of `columns` of them."""
    raw = np.random.default_rng(seed).normal(size=(basis.size, *columns, 2)) @ [1.0, 1j]
    return QuantumState(basis, raw / np.linalg.norm(raw, axis=0))


class TestRotatedPulses:
    """The nu pulse is the ring rotation R of a mu pulse, exp(-i H(nu = -s) t) =
    R exp(-i H(mu = s) t) R^T, which FullDynamics runs on the state, with no H of its
    own; integrable H without fields holds each block pair (Q1, Q2), (Q2, Q1) once."""

    @pytest.mark.parametrize("n_total", [3, 4, 5, 15])
    def test_the_nu_operator_is_the_rotated_mu_operator(self, n_total):
        modes, w = mode_frame(n_total)
        site_mu, site_nu = (hamiltonian_matrix(n_total, params.to_dict())
                            for params in (MU_FORM, NU_PULSE))
        r = site_rotation(modes.sites)
        # the oracle's, to its rounding (it sums the diagonal's terms in site order)
        np.testing.assert_allclose(r @ site_mu @ r.T, site_nu, rtol=0,
                                   atol=4 * np.finfo(float).eps * np.abs(site_nu).max())
        # partner and sign are R in the mode basis, and the package's blocks rotate exactly
        r_modes = mode_rotation(modes.terms)
        np.testing.assert_allclose(w @ r_modes @ w.T, r, rtol=0, atol=1e-12)
        mu_blocks, nu_blocks = (dense_blocks(build_mode_hamiltonian(params, modes.terms))
                                for params in (MU_FORM, NU_PULSE))
        np.testing.assert_array_equal(r_modes @ mu_blocks @ r_modes.T, nu_blocks)
        # `rotate` applies R and R^T to a state or a stack, exactly
        for state in (random_state(modes.basis, n_total), random_state(modes.basis, 0, 3)):
            for back, matrix in ((False, r_modes), (True, r_modes.T)):
                rotated = modes.terms.rotate(state, back)
                assert rotated.basis is modes.basis
                np.testing.assert_array_equal(rotated.amplitudes, matrix @ state.amplitudes)
        with pytest.raises(ValueError, match="mode basis"):
            modes.terms.rotate(QuantumState(modes.sites, state.amplitudes))

    @pytest.mark.parametrize("n_total", [3, 4, 5, 6])
    def test_evolution_matches_the_dense_exponential(self, n_total):
        """The mu form between R^T and R, and the paired integrable H, as the oracle's
        exp(-i H t) of the nu pulse and of H.  The Q1 = Q2 blocks stay single; at even N
        they hold the states that R fixes, |a, a, c, c>."""
        modes, w = mode_frame(n_total)
        dynamics = FullDynamics(modes.sites, modes)
        state = random_state(modes.basis, n_total)
        params = ModelParameters.integrable_set(u=2.3, j=0.9, u0=0.4)
        operator = dynamics.hamiltonian(params)
        shapes = [indices.shape[2:] for indices, _ in operator.blocks]
        assert (2,) in shapes and () in shapes
        mu_form = dynamics.hamiltonian(params.with_fields(mu=0.7, nu=0.0))
        rotate = modes.terms.rotate
        for couplings, evolved in (
                (params, evolve(state, operator, 1.7)),
                (params.with_fields(mu=0.0, nu=-0.7),
                 rotate(evolve(rotate(state, back=True), mu_form, 1.7)))):
            matrix = w.T @ hamiltonian_matrix(n_total, couplings.to_dict()) @ w
            expected = expm(-1j * 1.7 * matrix) @ state.amplitudes
            np.testing.assert_allclose(evolved.amplitudes, expected, rtol=0, atol=1e-12)

    def test_nu_segment_matches_a_directly_built_nu_pulse(self, basis15, set1):
        """At nu = 30 != mu the nu segment's mu form is not the mu pulse; it still gives the
        evolution under the H with nu = -30 itself, built in its own blocks."""
        cfg = ProtocolConfig(M_OCC, P_OCC, **{**set1, "nu": 30.0})
        dynamics = FullDynamics(basis15)
        start = QuantumState.from_fock(basis15, (M_OCC, P_OCC, 0, 0))
        stack = QuantumState(basis15, np.column_stack([start.amplitudes] * 2))
        direct = build_mode_hamiltonian(cfg.params.with_fields(mu=0.0, nu=-30.0),
                                        dynamics.modes.terms)
        expected = dynamics.modes.evolve_in_modes(
            start, [(dynamics.hamiltonian(cfg.params), cfg.t_m - cfg.t_nu), (direct, cfg.t_nu)])
        for states in (start, stack):
            evolved = dynamics.nu_segment(states, cfg).amplitudes.reshape(basis15.size, -1)
            np.testing.assert_allclose(evolved, np.broadcast_to(expected.amplitudes[:, None],
                                                                evolved.shape), rtol=0, atol=1e-12)
        assert all(params.nu == 0.0 for params in dynamics._operators)


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
        broken = replace(params, u13=params.u13 + 0.5)
        h = hamiltonian_matrix(3, broken.to_dict())
        assert commutator_norm(h, charge_matrix(3, "Q1")) > 1e-3


class TestDetuningOperator:
    def test_diagonal_structure(self, basis3):
        mat = detuning_operator(basis3)
        occ = basis3.occupations
        expected = occ[:, 0] * occ[:, 2] + occ[:, 1] * occ[:, 3]
        np.testing.assert_allclose(np.diag(mat), expected.astype(float))
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


def band_config(params, m_occ, p_occ):
    """A ProtocolConfig at the U and J of `params` for |M,P,0,0>, whose band scales are
    under test."""
    return ProtocolConfig(m_occ, p_occ, u=params.coupling_u(), j=params.j, mu=1.0, nu=1.0)


class TestDerivedScales:
    """Omega, t_m and beta, as ProtocolConfig derives them."""

    def test_set1_reference_values(self, set1):
        params = ModelParameters.integrable_set(u=set1["u"], j=set1["j"])
        scales = band_config(params, 4, 11)
        assert scales.omega == pytest.approx(0.04251131, rel=1e-6)
        assert scales.t_m == pytest.approx(36.950076, rel=1e-6)
        assert scales.beta == 1

    def test_beta_parity(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.5)
        assert band_config(params, 1, 4).beta == -1  # N=5, (N+1)/2 odd
        assert band_config(params, 2, 5).beta == +1  # N=7, (N+1)/2 even
        with pytest.raises(ValueError, match="must be odd"):   # beta needs an odd N
            band_config(params, 1, 3)

    def test_zero_tunneling_gives_infinite_time(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.0)
        assert band_config(params, 4, 11).t_m == math.inf

    def test_validation(self):
        params = ModelParameters.integrable_set(u=2.0, j=0.5)
        with pytest.raises(ValueError):
            band_config(params, 3, 4)  # |M-P| < 2
        with pytest.raises(ValueError, match=r"^U = \(U12 - U0\)/4 must be positive, got -1$"):
            band_config(ModelParameters.integrable_set(u=-1.0, j=0.5), 4, 11)
        with pytest.raises(ValueError, match="must be positive, got 0$"):
            band_config(ModelParameters.integrable_set(u=0.0, j=0.5), 4, 11)


def diagonal_band_energy(params: ModelParameters, m_occ: int, p_occ: int) -> float:
    """J=0 energy of any |M-l, P-k, l, k> at integrable couplings.

    E = C - U (M-P)^2 with C = (U0 + U12) N^2 / 4 - U0 N / 2; the
    degeneracy in (l, k) is what the small-J bands inherit.
    """
    n_total = m_occ + p_occ
    constant = (params.u0 + params.u12) * n_total**2 / 4.0 - params.u0 * n_total / 2.0
    return constant - params.coupling_u() * (m_occ - p_occ) ** 2


class TestDiagonalBandEnergy:
    @pytest.mark.parametrize("n_total", [3, 5])
    def test_zero_tunneling_diagonal_matches_formula(self, n_total):
        rng = np.random.default_rng(23)
        basis = enumerate_basis(n_total)
        for _ in range(5):
            params = random_integrable(rng)
            frozen = replace(params, j=0.0)
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
        u, j = 40.0, 1.0
        omega = j**2 / (4.0 * u * ((m_occ - p_occ) ** 2 - 1))
        charges = operator_matrix(
            n_total, lambda state: apply_effective_charges(state, n_total, omega))
        sq = operator_matrix(
            n_total, lambda state: apply_effective_sq(state, m_occ, p_occ, j, u))
        occ = basis.occupations
        half = np.nonzero((occ[:, 0] + occ[:, 2]) == m_occ)[0]
        sub_charges = charges[np.ix_(half, half)]
        sub_sq = sq[np.ix_(half, half)]
        shift = (sub_sq - sub_charges)[0, 0]
        np.testing.assert_allclose(
            sub_sq - shift * np.eye(half.size), sub_charges, atol=1e-12)
