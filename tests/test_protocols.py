"""NOON generation protocols: configuration, ideal targets, and benchmarks."""

import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from noonring.dynamics import site_probabilities, stack_columns
from noonring.fock import QuantumState, enumerate_basis
from noonring.model import HermitianOperator, NormalModes, build_mode_hamiltonian
from noonring.protocols import (
    READOUT_LAWS,
    FullDynamics,
    IdealDynamics,
    ProtocolConfig,
    _amplitudes,
    _check_thetas,
    _overlap,
    _positions_of,
    _protocol1_terms,
    _protocol2_terms,
    _uber_noon_terms,
    fit_readout_amplitudes,
    run_protocol1,
    run_protocol2,
    sweep_protocol1,
    sweep_protocol2,
    sweep_readout,
)

from conftest import M_OCC, P_OCC, read_out


def make_cfg(couplings, **kwargs):
    return ProtocolConfig(M_OCC, P_OCC, **couplings, **kwargs)


class TestProtocolConfig:
    def test_derived_times(self, set1):
        cfg = make_cfg(set1)
        theta = math.pi / P_OCC
        assert cfg.n_total == 15
        assert cfg.beta == 1
        assert cfg.t_mu(theta) == pytest.approx(theta / (2.0 * cfg.mu))
        np.testing.assert_array_equal(cfg.t_mu(np.array([0.0, theta])), [0.0, cfg.t_mu(theta)])
        assert cfg.t_nu == pytest.approx(math.pi / (4.0 * M_OCC * cfg.nu))

    def test_even_total_rejected(self, set1):
        with pytest.raises(ValueError):
            ProtocolConfig(4, 12, **set1)

    @pytest.mark.parametrize("m_occ, p_occ", [(0, 15), (15, 0)])
    def test_empty_subsystem_rejected(self, set1, m_occ, p_occ):
        # Rejected before t_nu = pi/(4 M nu) divides by zero.
        with pytest.raises(ValueError, match="M and P must be >= 1"):
            ProtocolConfig(m_occ, p_occ, **set1)

    def test_nonpositive_fields_rejected(self, set1):
        with pytest.raises(ValueError):
            make_cfg({**set1, "mu": 0.0, "nu": 0.0})

    def test_negative_theta_rejected(self, full15, set1):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            run_protocol2(make_cfg(set1), -0.1 / P_OCC, full15)

    @pytest.mark.parametrize("key, message", [
        ("u", "U = (U12 - U0)/4 must be positive, got nan"),
        ("j", "must be below t_m = nan s"),   # t_m = pi / (2 Omega) is NaN
        ("mu", "field strengths mu and nu must be positive"),
        ("nu", "field strengths mu and nu must be positive"),
        ("t_m_override", "t_m override must be positive"),
    ])
    def test_nan_inputs_rejected(self, set1, key, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_cfg({**set1, key: math.nan})

    def test_nan_theta_rejected(self, full15, set1):
        with pytest.raises(ValueError, match=r"^theta must be >= 0, got nan$"):
            run_protocol2(make_cfg(set1), math.nan, full15)
        with pytest.raises(ValueError, match=r"^theta must be >= 0, got nan$"):
            _check_thetas(make_cfg(set1), [0.1, math.nan, -0.2])

    def test_t_m_override(self, set1):
        cfg = make_cfg(set1, t_m_override=4.248)
        assert cfg.t_m == pytest.approx(4.248)
        with pytest.raises(ValueError):
            make_cfg(set1, t_m_override=-1.0)


class TestIdealStates:
    """The targets are {occupations: amplitude} records, normalized by `_amplitudes`."""

    def test_uber_noon_amplitudes(self, set1):
        terms = _uber_noon_terms(make_cfg(set1), 0.7)
        state = dict(zip(terms, _amplitudes(terms)))
        assert np.linalg.norm(list(state.values())) == pytest.approx(1.0, abs=1e-12)
        phase = np.exp(1j * 0.7)
        expected = {
            (4, 11, 0, 0): 0.5, (4, 0, 0, 11): 0.5 * phase,
            (0, 11, 4, 0): 0.5, (0, 0, 4, 11): -0.5 * phase,
        }
        assert state.keys() == expected.keys()
        for occ, amp in expected.items():
            assert state[occ] == pytest.approx(amp)
        assert np.count_nonzero(list(state.values())) == 4

    def test_p_theta_zero_is_the_pre_field_state(self, set1):
        """exp(1j * 0.0) is exactly 1: P theta = 0 gives the pre-field amplitudes bit for bit."""
        cfg = make_cfg(set1)
        pre_field = {(4, 11, 0, 0): 0.5 * cfg.beta, (4, 0, 0, 11): 0.5,
                     (0, 11, 4, 0): 0.5, (0, 0, 4, 11): -0.5 * cfg.beta}
        amplitudes = np.array(list(pre_field.values()), dtype=complex)
        terms = _uber_noon_terms(cfg, 0.0)
        assert list(terms) == list(pre_field)
        assert (_amplitudes(terms).tobytes()
                == (amplitudes / np.linalg.norm(amplitudes)).tobytes())

    def test_branch_outputs_disjoint_support(self, basis15, set1):
        cfg = make_cfg(set1)
        low, high = (QuantumState(basis15, np.zeros(basis15.size, dtype=complex))
                     for _ in range(2))
        for state, r in ((low, 0), (high, M_OCC)):
            terms = _protocol1_terms(cfg, r, 0.3)
            state.amplitudes[_positions_of(basis15, terms)] = _amplitudes(terms)
        overlap_support = np.abs(low.amplitudes) * np.abs(high.amplitudes)
        np.testing.assert_allclose(overlap_support, 0.0)
        # Site-1 occupation separates the branches: M on one, 0 on the other.
        assert site_probabilities(low, 1)[M_OCC] == pytest.approx(1.0)
        assert site_probabilities(high, 1)[0] == pytest.approx(1.0)

    def test_protocol2_output_phase(self, set1):
        terms = _protocol2_terms(make_cfg(set1), 0.9)
        assert list(terms) == [(4, 11, 0, 0), (4, 0, 0, 11)]
        a, b = _amplitudes(terms)
        ratio = b / a
        assert abs(ratio) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(ratio) == pytest.approx(0.9 + math.pi / 2.0, abs=1e-12)


class TestFidelity:
    def test_phase_invariance(self, basis3):
        """`_overlap` is |<target|column>|: a global phase of either drops out."""
        rng = np.random.default_rng(41)
        for _ in range(8):
            raw_a = rng.normal(size=len(basis3)) + 1j * rng.normal(size=len(basis3))
            raw_b = rng.normal(size=len(basis3)) + 1j * rng.normal(size=len(basis3))
            a = dict(zip(basis3, raw_a))
            b = raw_b / np.linalg.norm(raw_b)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            rotated = dict(zip(basis3, phase * raw_a))
            positions = _positions_of(basis3, a)
            fidelity = _overlap(a, positions, b)
            assert _overlap(rotated, positions, b) == pytest.approx(fidelity, abs=1e-12)
            assert _overlap(a, positions, phase * b) == pytest.approx(fidelity, abs=1e-12)
            assert _overlap(a, positions, _amplitudes(a)) == pytest.approx(1.0, abs=1e-12)


class TestUberNoonFormation:
    def test_full_evolution_reaches_four_branch_state(self, full15, basis15, set1):
        cfg = make_cfg(set1)
        reports = run_protocol1(cfg, 0.0 / P_OCC, full15)
        # Reassemble the pre-measurement corner populations from branches.
        corner_population = sum(
            rep.probability * abs(
                rep.final_state.amplitudes[basis15.index_of(occ)]) ** 2
            for rep in reports
            for occ in [(4, 11, 0, 0), (4, 0, 0, 11), (0, 11, 4, 0), (0, 0, 4, 11)]
        )
        assert corner_population > 0.99


class TestProtocol1:
    def test_ideal_mode_is_exact(self, ideal15, set1):
        cfg = make_cfg(set1)
        reports = run_protocol1(cfg, 1.1 / P_OCC, ideal15)
        selected = {rep.outcome: rep for rep in reports if rep.selected}
        assert set(selected) == {0, M_OCC}
        for rep in selected.values():
            assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        total = sum(rep.probability for rep in reports)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert selected[0].probability == pytest.approx(0.5, abs=1e-10)

    def test_full_mode_set1_benchmark(self, full15, set1):
        cfg = make_cfg(set1)
        reports = run_protocol1(cfg, math.pi / 2.0 / P_OCC, full15)
        by_outcome = {rep.outcome: rep for rep in reports}
        assert by_outcome[0].probability == pytest.approx(0.5009, abs=3e-3)
        assert by_outcome[0].fidelity == pytest.approx(0.9977, abs=3e-3)
        assert by_outcome[4].probability == pytest.approx(0.4956, abs=3e-3)
        assert by_outcome[4].fidelity == pytest.approx(0.9996, abs=3e-3)

    def test_probability_sum_rule_and_selection(self, full15, set1):
        cfg = make_cfg(set1)
        reports = run_protocol1(cfg, math.pi / 3.0 / P_OCC, full15)
        total = sum(rep.probability for rep in reports)
        assert total == pytest.approx(1.0, abs=1e-10)
        selected = sum(rep.probability for rep in reports if rep.selected)
        assert selected >= 0.99
        for rep in reports:
            assert rep.selected == (rep.outcome in (0, M_OCC))
            if not rep.selected:
                # Every NOON target lies on n3 in {0, M}: a discarded branch is disjoint from it.
                assert rep.fidelity == 0.0

    def test_discarded_branch_state_is_the_projection_of_the_stack(self, full15, basis15,
                                                                    set1):
        """Read after the sweep, a discarded branch's state is the renormalized projection
        of the evolved column, bit for bit, and it is formed once."""
        cfg, theta = make_cfg(set1), math.pi / 3.0 / P_OCC
        reports = run_protocol1(cfg, theta, full15)
        initial = QuantumState.from_fock(basis15, (M_OCC, P_OCC, 0, 0))
        column = full15.mu_segment(QuantumState(basis15, initial.amplitudes[:, None]), cfg,
                                   np.array([theta])).amplitudes[:, 0]
        outcome = basis15.occupations[:, 2]
        discarded = [rep for rep in reports if not rep.selected]
        assert len(discarded) == len(reports) - 2
        for rep in discarded:
            expected = np.where(outcome == rep.outcome, column, 0.0) / math.sqrt(rep.probability)
            np.testing.assert_array_equal(rep.final_state.amplitudes, expected)
            assert rep.final_state is rep.final_state

    def test_m1_kept_branches_score_against_their_own_targets(self, set1):
        """At M = 1 the kept r = M = 1 branch is the antisymmetric NOON state, not r = 0's."""
        cfg = ProtocolConfig(1, 4, **set1)
        dynamics = IdealDynamics(enumerate_basis(5))
        for theta in (0.0, 0.7 / 4, math.pi / 4):
            selected = {rep.outcome: rep for rep in run_protocol1(cfg, theta, dynamics)
                        if rep.selected}
            assert set(selected) == {0, 1}
            for rep in selected.values():
                assert rep.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_phase_encoding_tracks_p_theta(self, full15, basis15, set1):
        i_ref = basis15.index_of((4, 11, 0, 0))
        i_enc = basis15.index_of((4, 0, 0, 11))
        for p_theta in np.linspace(0.0, np.pi, 7):
            cfg = make_cfg(set1)
            reports = run_protocol1(cfg, float(p_theta) / P_OCC, full15)
            branch = next(rep for rep in reports if rep.outcome == 0)
            amps = branch.final_state.amplitudes
            ratio = amps[i_enc] / amps[i_ref]
            residual = np.angle(ratio * np.exp(-1j * p_theta))
            assert abs(residual) < 0.01  # leakage-level deviation only


class TestProtocol2:
    def test_ideal_mode_is_exact(self, ideal15, set1):
        cfg = make_cfg(set1)
        report = run_protocol2(cfg, 0.8 / P_OCC, ideal15)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.outcome is None and report.probability is None

    def test_full_mode_benchmarks(self, full15, set1, set2):
        f1 = run_protocol2(make_cfg(set1), math.pi / 2.0 / P_OCC, full15).fidelity
        f2 = run_protocol2(make_cfg(set2), math.pi / 2.0 / P_OCC, full15).fidelity
        assert f1 == pytest.approx(0.9962, abs=2e-3)
        assert f2 == pytest.approx(0.9345, abs=3e-3)
        assert f2 < f1  # slower set is closer to the resonant regime


class TestReadout:
    @pytest.mark.parametrize("p_theta", [0.0, 0.9, math.pi / 2.0, 2.6])
    def test_ideal_laws_protocol1(self, ideal15, set1, p_theta):
        cfg = make_cfg(set1)
        laws = {0: 0.5 * READOUT_LAWS["cos2"](p_theta), M_OCC: 0.5 * READOUT_LAWS["sin2"](p_theta)}
        pairs = read_out(cfg, p_theta / P_OCC, ideal15, 1)
        assert sorted(rep.outcome for rep, _ in pairs) == [0, M_OCC]
        for rep, distribution in pairs:
            for readout_r in (0, M_OCC):
                expected = laws[rep.outcome] if readout_r == rep.outcome else (
                    0.5 - laws[rep.outcome])
                joint = rep.probability * distribution[readout_r]
                assert joint == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("p_theta", [0.0, 0.9, math.pi / 2.0, 2.6])
    def test_ideal_laws_protocol2(self, ideal15, set1, p_theta):
        cfg = make_cfg(set1)
        ((report, distribution),) = read_out(cfg, p_theta / P_OCC, ideal15, 2)
        assert report.outcome is None and report.probability is None
        assert distribution.shape == (M_OCC + P_OCC + 1,)
        assert distribution[0] == pytest.approx(READOUT_LAWS["shifted_sin2"](p_theta), abs=1e-10)
        assert distribution[M_OCC] == pytest.approx(
            READOUT_LAWS["shifted_cos2"](p_theta), abs=1e-10)

    def test_law_pairs_are_complementary(self):
        for p_theta in np.linspace(0.0, np.pi, 11):
            half_cos2, half_sin2 = (0.5 * READOUT_LAWS[law](p_theta) for law in ("cos2", "sin2"))
            assert half_cos2 + half_sin2 == pytest.approx(0.5)
            assert (READOUT_LAWS["shifted_sin2"](p_theta)
                    + READOUT_LAWS["shifted_cos2"](p_theta)) == pytest.approx(1.0)


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
    @pytest.mark.parametrize("dynamics_class", [FullDynamics, IdealDynamics])
    def test_one_decomposition_per_operator_across_a_sweep(
            self, basis15, set1, monkeypatch, dynamics_class):
        """No eigh after the first theta point.  FullDynamics runs one batched
        eigh per entry of its Hamiltonians' blocks at that point; IdealDynamics
        one, on H_eff's 1 x 1 blocks, one per state of the normal-mode basis.
        The sweep starts above p_theta = 0, where t_mu = 0 needs no mu pulse."""
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        dynamics = dynamics_class(basis15)
        counts = []
        for p_theta in np.linspace(math.pi / 8, math.pi, 8):
            run_protocol2(make_cfg(set1), float(p_theta) / P_OCC, dynamics)
            counts.append(len(calls))
        assert counts == [counts[0]] * 8
        if dynamics_class is FullDynamics:
            assert counts[0] > 0
        else:
            assert calls == [(basis15.size, 1, 1)]

    @pytest.mark.parametrize("readout", [False, True])
    @pytest.mark.parametrize("nu", [None, 30.0])
    def test_the_nu_pulse_reuses_the_mu_pulse_eigensystem(self, basis15, set1, monkeypatch,
                                                          nu, readout):
        """A default-preset Protocol II run or readout (nu = mu) diagonalizes one pulse: the
        inverted-sign nu pulse is the ring rotation of the mu pulse.  With nu != mu it
        diagonalizes two, the mu pulse and the mu form of the nu pulse."""
        cfg = make_cfg({**set1, "nu": set1["nu"] if nu is None else nu})
        terms = NormalModes(basis15)
        band, pulse = (len(build_mode_hamiltonian(params, terms).blocks)   # eigh per H
                       for params in (cfg.params, cfg.params.with_fields(mu=cfg.mu, nu=0.0)))
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(matrices):
            calls.append(matrices.shape)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        theta = math.pi / 2.0 / P_OCC
        if readout:
            read_out(cfg, theta, FullDynamics(basis15), 2)
        else:
            run_protocol2(cfg, theta, FullDynamics(basis15))
        assert len(calls) == band + (1 if nu is None else 2) * pulse

    def test_no_eigensystem_call_nests_in_another(self, basis15, set1, monkeypatch):
        """Each operator of a Protocol II sweep decomposes in an eigensystem() call of its
        own, none inside another's, and a set1 sweep (nu = mu) holds two operators: the
        integrable H and the mu pulse, under which the nu pulse runs too."""
        depth, deepest = [0], [0]
        eigensystem = HermitianOperator.eigensystem

        def tracked(operator):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return eigensystem(operator)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(HermitianOperator, "eigensystem", tracked)
        dynamics = FullDynamics(basis15)
        thetas = np.linspace(0.1, 1.0, 3) / P_OCC
        assert len(list(sweep_protocol2(make_cfg(set1), thetas, dynamics))) == 3
        assert deepest == [1]
        assert len(dynamics._operators) == 2

    def test_operators_die_with_their_dynamics(self, basis5, set1):
        cfg = ProtocolConfig(1, 4, **set1)
        dynamics = FullDynamics(basis5)
        run_protocol2(cfg, 0.5 / 4, dynamics)
        operator = weakref.ref(dynamics.hamiltonian(cfg.params))
        assert operator() is not None
        del dynamics
        gc.collect()
        assert operator() is None

    def test_protocol2_at_n31_stays_in_blocks(self, set1):
        """(M, P) = (10, 21): dim 5,984, where one dense H alone is 286 MB."""
        cfg = ProtocolConfig(10, 21, **set1)
        tracemalloc.start()
        try:
            report = run_protocol2(cfg, 0.5 / 21, FullDynamics(enumerate_basis(31)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120e6
        assert np.linalg.norm(report.final_state.amplitudes) == pytest.approx(1.0, abs=1e-10)
        assert report.fidelity > 0.9


def sweep_grid(basis):
    """2 K + 3 thetas, K = states per stack: two full stacks and a partial third."""
    return np.linspace(0.0, math.pi, 2 * stack_columns(basis) + 3) / P_OCC


class Unrunnable(FullDynamics):
    """Dynamics whose every segment fails the test."""

    def band(self, *args):
        raise AssertionError("a segment ran")

    mu_segment = nu_segment = band


class CountingNu(FullDynamics):
    """FullDynamics that counts its nu segments."""

    def __init__(self, basis):
        super().__init__(basis)
        self.nu_calls = 0

    def nu_segment(self, *args):
        self.nu_calls += 1
        return super().nu_segment(*args)


def assert_same_report(swept, single):
    # A branch state is renormalized by 1/sqrt(P), which scales its roundoff up as
    # much: compare the projections sqrt(P) psi, which the evolution produced.
    scale = 1.0
    assert swept.outcome == single.outcome
    assert (swept.probability is None) == (single.probability is None)
    if single.probability is not None:
        assert swept.probability == pytest.approx(single.probability, rel=0, abs=1e-12)
        scale = math.sqrt(single.probability)
    assert swept.fidelity == pytest.approx(single.fidelity, rel=0, abs=1e-12)
    assert swept.selected == single.selected
    np.testing.assert_allclose(scale * swept.final_state.amplitudes,
                               scale * single.final_state.amplitudes, rtol=0, atol=1e-12)


class TestSweeps:
    """A sweep over a theta grid equals one run per theta, across stack boundaries."""

    @pytest.fixture(params=["full", "ideal"])
    def dynamics(self, request, full15, ideal15):
        return full15 if request.param == "full" else ideal15

    def test_protocol1(self, dynamics, basis15, set1):
        cfg, thetas = make_cfg(set1), sweep_grid(basis15)
        swept = list(sweep_protocol1(cfg, thetas, dynamics))
        assert len(swept) == len(thetas)
        for theta, reports in zip(thetas, swept):
            single = run_protocol1(cfg, theta, dynamics)
            assert len(reports) == len(single)
            for a, b in zip(reports, single):
                assert_same_report(a, b)

    def test_protocol2(self, dynamics, basis15, set1):
        cfg, thetas = make_cfg(set1), sweep_grid(basis15)
        swept = list(sweep_protocol2(cfg, thetas, dynamics))
        assert len(swept) == len(thetas)
        for theta, report in zip(thetas, swept):
            assert_same_report(report, run_protocol2(cfg, theta, dynamics))

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_readout(self, dynamics, basis15, set2, protocol):
        cfg, thetas = make_cfg(set2), sweep_grid(basis15)
        swept = list(sweep_readout(cfg, thetas, dynamics, protocol))
        assert len(swept) == len(thetas)
        for theta, pairs in zip(thetas, swept):
            if protocol == 1:
                reports = [r for r in run_protocol1(cfg, theta, dynamics) if r.selected]
            else:
                reports = [run_protocol2(cfg, theta, dynamics)]
            singles = read_out(cfg, theta, dynamics, protocol)   # a stack of this theta alone
            assert len(pairs) == len(reports) == len(singles)
            for (report, distribution), single, (_, expected) in zip(pairs, reports, singles):
                assert_same_report(report, single)
                np.testing.assert_array_equal(distribution > 0.0, expected > 0.0)
                np.testing.assert_allclose(distribution, expected, rtol=0, atol=1e-12)
                if protocol == 1:   # the joint probabilities of the CLI's table
                    np.testing.assert_allclose(report.probability * distribution,
                                               single.probability * expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("thetas, message", [
        ([0.1, -0.2, -0.3], r"^theta must be >= 0, got -0.2$"),
        ([0.1, 1e4, 0.2], r"^t_mu = 239\.578 s must be below t_m = 36\.9501 s$"),
    ], ids=["negative", "past-t_m"])
    @pytest.mark.parametrize("sweep", [
        sweep_protocol1, sweep_protocol2,
        lambda cfg, thetas, dynamics: sweep_readout(cfg, thetas, dynamics, 1),
        lambda cfg, thetas, dynamics: sweep_readout(cfg, thetas, dynamics, 2),
    ], ids=["protocol1", "protocol2", "readout1", "readout2"])
    def test_thetas_checked_before_any_segment(self, basis15, set1, sweep, thetas, message):
        with pytest.raises(ValueError, match=message):
            next(sweep(make_cfg(set1), thetas, Unrunnable(basis15)))

    @pytest.mark.parametrize("sweep", [
        sweep_protocol2, lambda cfg, thetas, dynamics: sweep_readout(cfg, thetas, dynamics, 2),
    ], ids=["protocol2", "readout2"])
    def test_nu_segment_runs_once_per_sweep(self, basis15, set1, sweep):
        """64 thetas fill 4 stacks at N = 15, but the nu segment does not depend on theta."""
        dynamics = CountingNu(basis15)
        thetas = np.linspace(0.0, math.pi, 64) / P_OCC
        assert len(list(sweep(make_cfg(set1), thetas, dynamics))) == 64
        assert dynamics.nu_calls == 1

    def test_unknown_readout_protocol_rejected(self, full15, set1):
        with pytest.raises(ValueError, match="protocol must be 1 or 2"):
            list(sweep_readout(make_cfg(set1), [0.3 / P_OCC], full15, protocol=3))

    def test_long_sweep_holds_one_stack(self, basis15, set1):
        """257 theta points at N = 15: every report at once would be ~54 MB
        (16 branch states of 13 kB each per point); the sweep keeps one stack."""
        thetas = np.linspace(0.0, math.pi, 257) / P_OCC
        dynamics = FullDynamics(basis15)
        tracemalloc.start()
        try:
            branches = sum(len(reports) for reports in sweep_protocol1(make_cfg(set1), thetas,
                                                                       dynamics))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert branches == 257 * 16
        assert peak < 6e6
