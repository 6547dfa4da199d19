"""NOON generation protocols: configuration, ideal targets, and benchmarks."""

import gc
import math
import weakref

import numpy as np
import pytest

from noonring.fock import QuantumState
from noonring.model import ModelParameters
from noonring.protocols import (
    MEASURED_SITE,
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    fidelity,
    fit_readout_amplitudes,
    ideal_protocol1_output,
    ideal_protocol2_output,
    ideal_uber_noon,
    protocol_config,
    protocol1_laws,
    protocol2_laws,
    run_protocol1,
    run_protocol2,
    run_readout,
)

from conftest import M_OCC, P_OCC


def make_cfg(couplings, p_theta):
    return protocol_config(M_OCC, P_OCC, u=couplings["u"], j=couplings["j"],
                           mu=couplings["mu"], p_theta=p_theta)


class TestProtocolConfig:
    def test_derived_times(self, set1):
        cfg = make_cfg(set1, p_theta=math.pi)
        assert cfg.n_total == 15
        assert cfg.beta == 1
        assert cfg.t_mu == pytest.approx(cfg.theta / (2.0 * cfg.mu))
        assert cfg.t_nu == pytest.approx(math.pi / (4.0 * M_OCC * cfg.nu))
        assert cfg.p_theta == pytest.approx(math.pi)
        assert cfg.theta == pytest.approx(math.pi / P_OCC)

    def test_theta_vs_p_theta_exclusive(self, set1):
        with pytest.raises(ValueError):
            protocol_config(M_OCC, P_OCC, u=set1["u"], j=set1["j"],
                            mu=set1["mu"], theta=0.1, p_theta=0.3)

    def test_with_theta(self, set1):
        cfg = make_cfg(set1, p_theta=0.0)
        bumped = cfg.with_theta(0.2)
        assert bumped.theta == pytest.approx(0.2)
        assert bumped.params == cfg.params

    def test_even_total_rejected(self, set1):
        with pytest.raises(ValueError):
            protocol_config(4, 12, u=set1["u"], j=set1["j"], mu=set1["mu"])

    def test_non_integrable_params_rejected(self, set1):
        params = ModelParameters.integrable_set(u=set1["u"], j=set1["j"])
        broken = ModelParameters(**{**params.to_dict(), "u13": 1.0})
        with pytest.raises(ValueError):
            ProtocolConfig(m_occ=M_OCC, p_occ=P_OCC, params=broken,
                           mu=set1["mu"], nu=set1["mu"], theta=0.0)

    def test_params_with_fields_on_rejected(self, set1):
        params = ModelParameters.integrable_set(u=set1["u"], j=set1["j"], mu=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(m_occ=M_OCC, p_occ=P_OCC, params=params,
                           mu=set1["mu"], nu=set1["mu"], theta=0.0)

    def test_nonpositive_fields_rejected(self, set1):
        with pytest.raises(ValueError):
            protocol_config(M_OCC, P_OCC, u=set1["u"], j=set1["j"], mu=0.0)

    def test_negative_theta_rejected(self, set1):
        with pytest.raises(ValueError):
            make_cfg(set1, p_theta=-0.1)

    def test_t_m_override(self, set1):
        cfg = protocol_config(M_OCC, P_OCC, u=set1["u"], j=set1["j"],
                              mu=set1["mu"], t_m_override=4.248)
        assert cfg.t_m == pytest.approx(4.248)
        with pytest.raises(ValueError):
            protocol_config(M_OCC, P_OCC, u=set1["u"], j=set1["j"],
                            mu=set1["mu"], t_m_override=-1.0)


class TestIdealStates:
    def test_uber_noon_amplitudes(self, basis15, set1):
        cfg = make_cfg(set1, p_theta=0.7)
        state = ideal_uber_noon(cfg, basis15)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        phase = np.exp(1j * 0.7)
        expected = {
            (4, 11, 0, 0): 0.5, (4, 0, 0, 11): 0.5 * phase,
            (0, 11, 4, 0): 0.5, (0, 0, 4, 11): -0.5 * phase,
        }
        for occ, amp in expected.items():
            assert state.amplitudes[basis15.index_of(occ)] == pytest.approx(amp)
        assert np.count_nonzero(state.amplitudes) == 4

    def test_branch_outputs_disjoint_support(self, basis15, set1):
        cfg = make_cfg(set1, p_theta=0.3)
        low = ideal_protocol1_output(cfg, basis15, 0)
        high = ideal_protocol1_output(cfg, basis15, M_OCC)
        overlap_support = np.abs(low.amplitudes) * np.abs(high.amplitudes)
        np.testing.assert_allclose(overlap_support, 0.0)
        # Site-1 occupation separates the branches: M on one, 0 on the other.
        assert low.number_expectation(1) == pytest.approx(M_OCC)
        assert high.number_expectation(1) == pytest.approx(0.0)

    def test_branch_output_invalid_r(self, basis15, set1):
        cfg = make_cfg(set1, p_theta=0.3)
        with pytest.raises(ValueError):
            ideal_protocol1_output(cfg, basis15, 2)

    def test_protocol2_output_phase(self, basis15, set1):
        cfg = make_cfg(set1, p_theta=0.9)
        state = ideal_protocol2_output(cfg, basis15)
        a = state.amplitudes[basis15.index_of((4, 11, 0, 0))]
        b = state.amplitudes[basis15.index_of((4, 0, 0, 11))]
        ratio = b / a
        assert abs(ratio) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(ratio) == pytest.approx(0.9 + math.pi / 2.0, abs=1e-12)


class TestFidelity:
    def test_phase_invariance(self, basis3):
        rng = np.random.default_rng(41)
        for _ in range(8):
            raw_a = rng.normal(size=len(basis3)) + 1j * rng.normal(size=len(basis3))
            raw_b = rng.normal(size=len(basis3)) + 1j * rng.normal(size=len(basis3))
            a = QuantumState(basis3, raw_a).normalized()
            b = QuantumState(basis3, raw_b).normalized()
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            rotated = QuantumState(basis3, phase * a.amplitudes)
            assert fidelity(rotated, b) == pytest.approx(fidelity(a, b), abs=1e-12)
            assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


class TestUberNoonFormation:
    def test_full_evolution_reaches_four_branch_state(self, full15, basis15, set1):
        cfg = make_cfg(set1, p_theta=0.0)
        reports = run_protocol1(cfg, full15)
        # Reassemble the pre-measurement corner populations from branches.
        corner_population = sum(
            rep.measurement.probability * abs(
                rep.final_state.amplitudes[basis15.index_of(occ)]) ** 2
            for rep in reports
            for occ in [(4, 11, 0, 0), (4, 0, 0, 11), (0, 11, 4, 0), (0, 0, 4, 11)]
        )
        assert corner_population > 0.99


class TestProtocol1:
    def test_ideal_mode_is_exact(self, ideal15, set1):
        cfg = make_cfg(set1, p_theta=1.1)
        reports = run_protocol1(cfg, ideal15)
        selected = {rep.measurement.outcome: rep for rep in reports if rep.selected}
        assert set(selected) == {0, M_OCC}
        for rep in selected.values():
            assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        total = sum(rep.measurement.probability for rep in reports)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert selected[0].measurement.probability == pytest.approx(0.5, abs=1e-10)

    def test_full_mode_set1_benchmark(self, full15, set1):
        cfg = make_cfg(set1, p_theta=math.pi / 2.0)
        reports = run_protocol1(cfg, full15)
        by_outcome = {rep.measurement.outcome: rep for rep in reports}
        assert by_outcome[0].measurement.probability == pytest.approx(0.5009, abs=3e-3)
        assert by_outcome[0].fidelity == pytest.approx(0.9977, abs=3e-3)
        assert by_outcome[4].measurement.probability == pytest.approx(0.4956, abs=3e-3)
        assert by_outcome[4].fidelity == pytest.approx(0.9996, abs=3e-3)

    def test_probability_sum_rule_and_selection(self, full15, set1):
        cfg = make_cfg(set1, p_theta=math.pi / 3.0)
        reports = run_protocol1(cfg, full15)
        total = sum(rep.measurement.probability for rep in reports)
        assert total == pytest.approx(1.0, abs=1e-10)
        selected = sum(rep.measurement.probability for rep in reports if rep.selected)
        assert selected >= 0.99
        for rep in reports:
            assert rep.selected == (rep.measurement.outcome in (0, M_OCC))
            if not rep.selected:
                # Discarded branches have no overlap with either NOON target.
                assert rep.fidelity == pytest.approx(0.0, abs=1e-6)

    def test_custom_postselection(self, full15, set1):
        cfg = make_cfg(set1, p_theta=0.5)
        reports = run_protocol1(cfg, full15, postselect=(1, 2))
        for rep in reports:
            assert rep.selected == (rep.measurement.outcome in (1, 2))

    def test_phase_encoding_tracks_p_theta(self, full15, basis15, set1):
        i_ref = basis15.index_of((4, 11, 0, 0))
        i_enc = basis15.index_of((4, 0, 0, 11))
        for p_theta in np.linspace(0.0, np.pi, 7):
            cfg = make_cfg(set1, p_theta=float(p_theta))
            reports = run_protocol1(cfg, full15)
            branch = next(rep for rep in reports if rep.measurement.outcome == 0)
            amps = branch.final_state.amplitudes
            ratio = amps[i_enc] / amps[i_ref]
            residual = np.angle(ratio * np.exp(-1j * p_theta))
            assert abs(residual) < 0.01  # leakage-level deviation only


class TestProtocol2:
    def test_ideal_mode_is_exact(self, ideal15, set1):
        cfg = make_cfg(set1, p_theta=0.8)
        report = run_protocol2(cfg, ideal15)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.measurement is None
        assert report.elapsed_model_time == pytest.approx(2.0 * cfg.t_m)

    def test_full_mode_benchmarks(self, full15, set1, set2):
        f1 = run_protocol2(make_cfg(set1, math.pi / 2.0), full15).fidelity
        f2 = run_protocol2(make_cfg(set2, math.pi / 2.0), full15).fidelity
        assert f1 == pytest.approx(0.9962, abs=2e-3)
        assert f2 == pytest.approx(0.9345, abs=3e-3)
        assert f2 < f1  # slower set is closer to the resonant regime


class TestReadout:
    @pytest.mark.parametrize("p_theta", [0.0, 0.9, math.pi / 2.0, 2.6])
    def test_ideal_laws_protocol1(self, ideal15, set1, p_theta):
        cfg = make_cfg(set1, p_theta=p_theta)
        reports = run_protocol1(cfg, ideal15)
        laws = protocol1_laws(p_theta)
        for rep in reports:
            if not rep.selected:
                continue
            result = run_readout(rep, cfg, ideal15)
            joint = dict(result.joint)
            key = "P_I(.,0)" if rep.measurement.outcome == 0 else "P_I(.,M)"
            for readout_r in (0, M_OCC):
                expected = laws[key] if readout_r == rep.measurement.outcome else (
                    0.5 - laws[key])
                assert joint.get(readout_r, 0.0) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("p_theta", [0.0, 0.9, math.pi / 2.0, 2.6])
    def test_ideal_laws_protocol2(self, ideal15, set1, p_theta):
        cfg = make_cfg(set1, p_theta=p_theta)
        report = run_protocol2(cfg, ideal15)
        result = run_readout(report, cfg, ideal15)
        outcomes = dict(result.outcomes)
        laws = protocol2_laws(p_theta)
        assert outcomes.get(0, 0.0) == pytest.approx(laws["P_II(0)"], abs=1e-10)
        assert outcomes.get(M_OCC, 0.0) == pytest.approx(laws["P_II(M)"], abs=1e-10)
        assert result.joint is None

    def test_law_pairs_are_complementary(self):
        for p_theta in np.linspace(0.0, np.pi, 11):
            p1 = protocol1_laws(p_theta)
            p2 = protocol2_laws(p_theta)
            assert p1["P_I(.,0)"] + p1["P_I(.,M)"] == pytest.approx(0.5)
            assert p2["P_II(0)"] + p2["P_II(M)"] == pytest.approx(1.0)


class TestReadoutFits:
    def test_recovers_exact_coefficient(self):
        grid = np.linspace(0.0, np.pi, 20)
        samples = [(pt, 0.5 * math.cos(0.5 * pt) ** 2) for pt in grid]
        assert fit_readout_amplitudes(samples, "cos2") == pytest.approx(0.5, abs=1e-12)
        samples = [(pt, 0.83 * math.sin(0.5 * pt - 0.25 * math.pi) ** 2) for pt in grid]
        assert fit_readout_amplitudes(samples, "shifted_sin2") == pytest.approx(
            0.83, abs=1e-12)

    def test_requires_three_distinct_phases(self):
        with pytest.raises(ValueError):
            fit_readout_amplitudes([(0.1, 0.2), (0.1, 0.3), (0.1, 0.4)], "cos2")

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            fit_readout_amplitudes([(0.0, 1.0), (0.5, 0.5), (1.0, 0.1)], "tan2")

    def test_vanishing_law_rejected(self):
        from noonring.protocols import READOUT_LAWS
        READOUT_LAWS["zero"] = lambda p_theta: 0.0
        try:
            samples = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
            with pytest.raises(ValueError):
                fit_readout_amplitudes(samples, "zero")
        finally:
            del READOUT_LAWS["zero"]


class TestDynamics:
    @pytest.mark.parametrize("dynamics_class, decompositions", [
        (FullDynamics, 3),    # integrable H, nu on, mu on
        (IdealDynamics, 1),   # H_eff
    ])
    def test_one_decomposition_per_operator_across_a_sweep(
            self, basis15, set1, monkeypatch, dynamics_class, decompositions):
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        dynamics = dynamics_class(basis15)
        for p_theta in np.linspace(0.0, math.pi, 8):
            run_protocol2(make_cfg(set1, float(p_theta)), dynamics)
        assert len(calls) == decompositions

    def test_operators_die_with_their_dynamics(self, basis5, set1):
        cfg = protocol_config(1, 4, u=set1["u"], j=set1["j"], mu=set1["mu"], p_theta=0.5)
        dynamics = FullDynamics(basis5)
        run_protocol2(cfg, dynamics)
        operator = weakref.ref(dynamics.hamiltonian(cfg.params))
        assert operator() is not None
        del dynamics
        gc.collect()
        assert operator() is None
