"""Tests for the detuning-robustness sweeps and the pulsed propagator."""

import numpy as np
import pytest

from noonring import robustness
from noonring.dynamics import NormalModes, evolve
from noonring.fock import QuantumState, enumerate_basis
from noonring.lattice import TrapParameters, solve_integrability, v0_from_omega_r
from noonring.protocols import protocol_config, run_protocol1, run_protocol2
from noonring.robustness import (
    RobustnessConfig,
    RobustnessPoint,
    pulsed_propagator,
    run_robustness,
    threshold_xi,
)

from conftest import M_OCC, P_OCC, SET1, SET2, dense_operator
from oracle import detuning_operator, hamiltonian_matrix


def make_cfg(couplings, p_theta=np.pi / 2):
    return protocol_config(
        m_occ=M_OCC, p_occ=P_OCC,
        u=couplings["u"], j=couplings["j"],
        mu=couplings["mu"], p_theta=p_theta,
    )


def sweep_point(couplings, basis, xi_over_j, **kwargs):
    config = RobustnessConfig(
        base=make_cfg(couplings),
        xi_values=(xi_over_j * couplings["j"],),
        **kwargs,
    )
    return run_robustness(config, basis)[0]


class TestRobustnessConfig:
    def test_defaults(self, set1):
        config = RobustnessConfig(base=make_cfg(SET1), xi_values=(0.1,))
        assert config.n_dt == 100
        assert config.mode == "pulsed"
        assert config.source == "direct"
        assert config.protocol == 1
        assert config.start_sign == 1

    @pytest.mark.parametrize("overrides", [
        {"n_dt": 0},
        {"n_dt": -3},
        {"mode": "adiabatic"},
        {"source": "analytic"},
        {"protocol": 3},
        {"start_sign": 0},
        {"source": "physical"},  # trap is required but missing
    ])
    def test_invalid_settings_rejected(self, overrides):
        with pytest.raises(ValueError):
            RobustnessConfig(base=make_cfg(SET1), xi_values=(0.1,), **overrides)


class TestPulsedPropagator:
    def detuned_pair(self, basis, couplings, xi):
        params = make_cfg(couplings).params
        h0 = hamiltonian_matrix(basis.n_total, params.to_dict())
        bump = xi * detuning_operator(basis)
        h_plus = dense_operator(basis, h0 + bump, check=False)
        h_minus = dense_operator(basis, h0 - bump, check=False)
        return h_plus, h_minus

    def start_state(self, basis):
        return QuantumState.from_fock(basis, (M_OCC, P_OCC, 0, 0))

    def test_equal_hamiltonians_match_single_shot(self, basis15):
        h_plus, _ = self.detuned_pair(basis15, SET1, 0.0)
        psi = self.start_state(basis15)
        chopped = pulsed_propagator(h_plus, h_plus, psi, 3.7, n_dt=5)
        direct = evolve(psi, h_plus, 3.7)
        np.testing.assert_allclose(chopped.amplitudes, direct.amplitudes, atol=1e-10)

    def test_preserves_norm(self, basis15):
        h_plus, h_minus = self.detuned_pair(basis15, SET1, 0.5)
        out = pulsed_propagator(h_plus, h_minus, self.start_state(basis15), 2.0, n_dt=3)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_slicing_matters_for_noncommuting_pair(self, basis15):
        h_plus, h_minus = self.detuned_pair(basis15, SET1, 2.0)
        psi = self.start_state(basis15)
        coarse = pulsed_propagator(h_plus, h_minus, psi, 4.0, n_dt=1)
        fine = pulsed_propagator(h_plus, h_minus, psi, 4.0, n_dt=2)
        distance = np.linalg.norm(coarse.amplitudes - fine.amplitudes)
        assert distance > 1e-3

    def test_start_sign_swaps_roles(self, basis15):
        h_plus, h_minus = self.detuned_pair(basis15, SET1, 1.0)
        psi = self.start_state(basis15)
        flipped = pulsed_propagator(h_plus, h_minus, psi, 1.5, n_dt=2, start_sign=-1)
        swapped = pulsed_propagator(h_minus, h_plus, psi, 1.5, n_dt=2, start_sign=1)
        np.testing.assert_allclose(flipped.amplitudes, swapped.amplitudes, atol=1e-13)

    def test_zero_duration_is_identity(self, basis15):
        h_plus, h_minus = self.detuned_pair(basis15, SET1, 1.0)
        psi = self.start_state(basis15)
        out = pulsed_propagator(h_plus, h_minus, psi, 0.0, n_dt=4)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_invalid_arguments_rejected(self, basis15):
        h_plus, h_minus = self.detuned_pair(basis15, SET1, 1.0)
        psi = self.start_state(basis15)
        with pytest.raises(ValueError):
            pulsed_propagator(h_plus, h_minus, psi, -1.0, n_dt=4)
        with pytest.raises(ValueError):
            pulsed_propagator(h_plus, h_minus, psi, 1.0, n_dt=0)


class TestDirectSweeps:
    @pytest.mark.parametrize("protocol", [1, 2])
    def test_zero_detuning_matches_unperturbed_protocol(self, basis15, full15, protocol):
        cfg = make_cfg(SET1)
        point = sweep_point(SET1, basis15, 0.0, n_dt=4, protocol=protocol)
        if protocol == 2:
            assert point.probability is None
            assert point.fidelity == pytest.approx(run_protocol2(cfg, full15).fidelity, abs=1e-9)
            return
        reports = run_protocol1(cfg, full15)
        reference = next(r for r in reports if r.measurement.outcome == 0)
        assert point.fidelity == pytest.approx(reference.fidelity, abs=1e-9)
        assert point.probability == pytest.approx(
            reference.measurement.probability, abs=1e-9)

    def test_point_bookkeeping(self, basis15):
        point = sweep_point(SET1, basis15, 0.004, n_dt=10)
        assert point.xi == pytest.approx(0.004 * SET1["j"])
        assert point.xi_over_j == pytest.approx(0.004)
        assert 0.0 < point.probability <= 1.0
        assert 0.0 <= point.fidelity <= 1.0

    def test_pulsed_benchmarks(self, basis15):
        point1 = sweep_point(SET1, basis15, 0.010, n_dt=100)
        assert point1.fidelity == pytest.approx(0.9880, abs=1e-3)
        point2 = sweep_point(SET2, basis15, 0.015, n_dt=100)
        assert point2.fidelity == pytest.approx(0.9686, abs=1e-3)

    def test_static_fidelity_decreases_with_detuning(self, basis15):
        grid = (5e-5, 1e-4, 2e-4, 5e-4)
        config = RobustnessConfig(
            base=make_cfg(SET1),
            xi_values=tuple(x * SET1["j"] for x in grid),
            mode="static",
        )
        fidelities = [p.fidelity for p in run_robustness(config, basis15)]
        assert fidelities[0] == pytest.approx(0.9954, abs=1e-3)
        assert fidelities[-1] == pytest.approx(0.8296, abs=1e-3)
        assert all(a > b for a, b in zip(fidelities, fidelities[1:]))

    def test_more_oscillations_help(self, basis15):
        fidelities = [
            sweep_point(SET1, basis15, 0.005, n_dt=n).fidelity
            for n in (2, 10, 50, 100)
        ]
        assert all(a < b for a, b in zip(fidelities, fidelities[1:]))
        assert fidelities[0] < 0.5
        assert fidelities[-1] > 0.99

    def test_start_sign_report(self, basis15):
        plus = sweep_point(SET1, basis15, 0.010, n_dt=25, start_sign=1)
        minus = sweep_point(SET1, basis15, 0.010, n_dt=25, start_sign=-1)
        for point in (plus, minus):
            assert 0.0 <= point.fidelity <= 1.0
        # The two orderings are expected to track each other closely but are
        # not exactly symmetric; report the gap instead of asserting on it.
        print(f"start-sign fidelity gap: {abs(plus.fidelity - minus.fidelity):.3e}")

    def test_protocol2_sweep(self, basis15):
        point = sweep_point(SET1, basis15, 0.010, n_dt=100, protocol=2)
        assert point.probability is None
        assert point.fidelity == pytest.approx(0.9562, abs=1e-3)


class TestPhysicalSource:
    def test_smoke_point(self, basis15):
        point = sweep_point(
            SET1, basis15, 0.001, n_dt=2,
            source="physical", trap=TrapParameters(),
        )
        assert 0.0 <= point.fidelity <= 1.0
        assert 0.0 < point.probability <= 1.0


def detuned_system(config, basis, xi):
    """The system `run_robustness` builds at xi, with its couplings."""
    modes = NormalModes(basis)
    if config.source == "direct":
        return robustness._direct_system(config, modes, xi)
    omega_star = solve_integrability(config.trap).omega_r
    return robustness._physical_system(
        config, modes, omega_star, v0_from_omega_r(config.trap, omega_star), xi)


class DenseSystem:
    """The site-basis reference: dense H(+xi), H(-xi), mu and nu pulse matrices,
    evolved slice by slice with `pulsed_propagator`."""

    def __init__(self, config, basis, cfg, matrices):
        self.config, self.basis, self.cfg = config, basis, cfg
        self.h_plus, self.h_minus, self.h_mu, self.h_nu = (
            dense_operator(basis, matrix) for matrix in matrices)

    def band(self, state, cfg, t):
        if self.config.mode == "static":
            return evolve(state, self.h_plus, t)
        return pulsed_propagator(
            self.h_plus, self.h_minus, state, t, self.config.n_dt, self.config.start_sign)

    def mu_segment(self, state, cfg):
        return evolve(self.band(state, cfg, cfg.t_m - cfg.t_mu), self.h_mu, cfg.t_mu)

    def nu_segment(self, state, cfg):
        return evolve(self.band(state, cfg, cfg.t_m - cfg.t_nu), self.h_nu, cfg.t_nu)


class TestParityBlocks:
    """Robustness runs in the normal-mode parity blocks and matches the dense site basis."""

    def test_sources_realize_opposite_detunings(self):
        basis = enumerate_basis(7)
        xi = 0.02 * SET1["j"]
        for source, sign in (("direct", -1.0), ("physical", 1.0)):
            config = RobustnessConfig(
                base=make_cfg(SET1), xi_values=(xi,), source=source, trap=TrapParameters())
            plus, minus, mu_pulse, nu_pulse = detuned_system(config, basis, xi).couplings
            for params, detuning in ((plus, xi), (minus, -xi), (mu_pulse, xi), (nu_pulse, xi)):
                assert params.ring_symmetric()
                # direct: U13 - U0 = +xi; physical: U0 - U13 = +xi
                assert params.u0 - params.u13 == pytest.approx(sign * detuning, rel=1e-6)

    @pytest.mark.parametrize("source", ["direct", "physical"])
    def test_no_eigh_wider_than_a_parity_block(self, basis15, source, monkeypatch):
        widths = []
        eigh = np.linalg.eigh

        def recording_eigh(matrices):
            widths.append(matrices.shape[-1])
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for protocol in (1, 2):
            config = RobustnessConfig(
                base=make_cfg(SET1), xi_values=(0.01 * SET1["j"],), n_dt=2,
                protocol=protocol, source=source, trap=TrapParameters())
            run_robustness(config, basis15)
        # H(+-xi): blocks 240/204/204/168; a pulse H: 444/372, of the dense 816
        assert widths and max(widths) == 444

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("mode", ["pulsed", "static"])
    @pytest.mark.parametrize("source", ["direct", "physical"])
    def test_matches_the_dense_site_basis(self, source, mode, protocol):
        basis = enumerate_basis(7)   # M + P
        base = protocol_config(m_occ=2, p_occ=5, u=SET1["u"], j=SET1["j"],
                               mu=SET1["mu"], p_theta=np.pi / 2)
        config = RobustnessConfig(
            base=base, xi_values=tuple(x * SET1["j"] for x in (0.0, 0.01, 0.05)),
            n_dt=5, mode=mode, source=source, protocol=protocol, start_sign=-1,
            trap=TrapParameters())
        points = run_robustness(config, basis)
        for point in points:
            system = detuned_system(config, basis, point.xi)
            if source == "direct":   # H(+-xi) = H_integrable +- xi (N1 N3 + N2 N4)
                bump = point.xi * detuning_operator(basis)
                free, mu_pulse, nu_pulse = (hamiltonian_matrix(7, params.to_dict()) for params in (
                    base.params, base.params.with_fields(mu=base.mu, nu=0.0),
                    base.params.with_fields(mu=0.0, nu=-base.nu)))
                matrices = (free + bump, free - bump, mu_pulse + bump, nu_pulse + bump)
            else:
                matrices = [hamiltonian_matrix(7, params.to_dict()) for params in system.couplings]
            dense = DenseSystem(config, basis, system.cfg, matrices)
            reference = robustness._run_point(dense, point.xi)
            assert point.fidelity == pytest.approx(reference.fidelity, rel=0, abs=1e-10)
            if protocol == 1:
                assert point.probability == pytest.approx(reference.probability, rel=0, abs=1e-10)
            else:
                assert point.probability is None


class TestThreshold:
    def make_points(self, pairs):
        return [
            RobustnessPoint(xi=x, xi_over_j=x, fidelity=f, probability=None)
            for x, f in pairs
        ]

    def test_largest_passing_value(self):
        points = self.make_points([(0.001, 0.99), (0.005, 0.95), (0.02, 0.4)])
        assert threshold_xi(points) == pytest.approx(0.005)

    def test_custom_level(self):
        points = self.make_points([(0.001, 0.99), (0.005, 0.95), (0.02, 0.4)])
        assert threshold_xi(points, level=0.98) == pytest.approx(0.001)

    def test_none_when_nothing_passes(self):
        points = self.make_points([(0.01, 0.5), (0.02, 0.3)])
        assert threshold_xi(points, level=0.9) is None
