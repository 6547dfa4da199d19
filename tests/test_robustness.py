"""Tests for the detuning-robustness sweeps and their pulsed dynamics."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from noonring import lattice, model, robustness
from noonring.dynamics import evolve
from noonring.fock import QuantumState, enumerate_basis
from noonring.lattice import TrapParameters
from noonring.model import (
    NormalModes, _SparseHamiltonian, _sparse_mode_hamiltonian, build_mode_hamiltonian)
from noonring.protocols import FullDynamics, ProtocolConfig, run_protocol1, run_protocol2
from noonring.robustness import (
    P_THETA,
    RobustnessConfig,
    RobustnessPoint,
    run_robustness,
    threshold_xi,
)

from conftest import M_OCC, P_OCC, SET1, SET2, dense_operator, read_out
from oracle import detuning_operator, hamiltonian_matrix


def make_cfg(couplings):
    return ProtocolConfig(M_OCC, P_OCC, **couplings)


def trap_of(source):
    """A RobustnessConfig's trap: one makes it the physical source, None the direct one."""
    return TrapParameters() if source == "physical" else None


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
        assert config.trap is None   # the direct source
        assert config.protocol == 1
        assert config.start_sign == 1

    @pytest.mark.parametrize("overrides", [
        {"n_dt": 0},
        {"n_dt": -3},
        {"mode": "adiabatic"},
        {"protocol": 3},
        {"start_sign": 0},
    ])
    def test_invalid_settings_rejected(self, overrides):
        with pytest.raises(ValueError):
            RobustnessConfig(base=make_cfg(SET1), xi_values=(0.1,), **overrides)


class TestPulsedPropagator:
    """The pulsed band interval of the detuned dynamics: n_dt oscillations between
    H(+xi) and H(-xi) = H_integrable +- xi (N1 N3 + N2 N4)."""

    def system(self, basis, xi, n_dt, start_sign=1, swap=False):
        config = RobustnessConfig(base=make_cfg(SET1), xi_values=(xi,), n_dt=n_dt,
                                  start_sign=start_sign)
        system = robustness._direct_system(config, NormalModes(basis), xi)
        if swap:
            plus, minus, *pulses = system.couplings
            system = robustness._DetunedSystem(config, system.modes, system.cfg,
                                               (minus, plus, *pulses))
        return system

    def band(self, system, t):
        return system.band(self.start_state(system.basis), system.cfg, t)

    def start_state(self, basis):
        return QuantumState.from_fock(basis, (M_OCC, P_OCC, 0, 0))

    def test_equal_hamiltonians_match_single_shot(self, basis15):
        pulsed = self.system(basis15, 0.0, n_dt=5)
        chopped = self.band(pulsed, 3.7)
        assert len(pulsed._operators) == 1   # H(+0) and H(-0) are one operator
        static = robustness._DetunedSystem(
            replace(pulsed.config, mode="static"), pulsed.modes, pulsed.cfg, pulsed.couplings)
        direct = self.band(static, 3.7)
        np.testing.assert_allclose(chopped.amplitudes, direct.amplitudes, atol=1e-10)

    def test_preserves_norm(self, basis15):
        out = self.band(self.system(basis15, 0.5, n_dt=3), 2.0)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_slicing_matters_for_noncommuting_pair(self, basis15):
        coarse = self.band(self.system(basis15, 2.0, n_dt=1), 4.0)
        fine = self.band(self.system(basis15, 2.0, n_dt=2), 4.0)
        distance = np.linalg.norm(coarse.amplitudes - fine.amplitudes)
        assert distance > 1e-3

    def test_start_sign_swaps_roles(self, basis15):
        flipped = self.band(self.system(basis15, 1.0, n_dt=2, start_sign=-1), 1.5)
        swapped = self.band(self.system(basis15, 1.0, n_dt=2, swap=True), 1.5)
        np.testing.assert_allclose(flipped.amplitudes, swapped.amplitudes, atol=1e-13)

    def test_zero_duration_is_identity(self, basis15):
        psi = self.start_state(basis15)
        out = self.band(self.system(basis15, 1.0, n_dt=4), 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_invalid_arguments_rejected(self, basis15):
        with pytest.raises(ValueError):
            self.band(self.system(basis15, 1.0, n_dt=4), -1.0)
        with pytest.raises(ValueError):
            self.system(basis15, 1.0, n_dt=0)


class TestDirectSweeps:
    @pytest.mark.parametrize("protocol", [1, 2])
    def test_zero_detuning_matches_unperturbed_protocol(self, basis15, full15, protocol):
        cfg = make_cfg(SET1)
        point = sweep_point(SET1, basis15, 0.0, n_dt=4, protocol=protocol)
        if protocol == 2:
            assert point.probability is None
            assert point.fidelity == pytest.approx(
                run_protocol2(cfg, P_THETA / P_OCC, full15).fidelity, abs=1e-9)
            return
        reports = run_protocol1(cfg, P_THETA / P_OCC, full15)
        reference = next(r for r in reports if r.outcome == 0)
        assert point.fidelity == pytest.approx(reference.fidelity, abs=1e-9)
        assert point.probability == pytest.approx(reference.probability, abs=1e-9)

    def test_point_bookkeeping(self, basis15):
        point = sweep_point(SET1, basis15, 0.004, n_dt=10)
        assert point.xi == pytest.approx(0.004 * SET1["j"])
        assert point.xi / SET1["j"] == pytest.approx(0.004)
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


class TestMemory:
    def test_long_sweep_holds_one_point(self, basis15):
        """Each xi point's dynamics (~8 MB of operators at N = 15) is dropped before the next."""
        xi_values = tuple(x * SET1["j"] for x in np.linspace(0.001, 0.012, 12))

        def peak(values):
            config = RobustnessConfig(base=make_cfg(SET1), xi_values=values, n_dt=2)
            gc.collect()
            tracemalloc.start()
            try:
                run_robustness(config, basis15)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(xi_values) <= 1.5 * peak(xi_values[-1:])

    def test_sweep_builds_one_normal_modes(self, basis15, monkeypatch):
        built = []
        init = NormalModes.__init__

        def counting_init(modes, sites):
            built.append(sites)
            init(modes, sites)

        monkeypatch.setattr(NormalModes, "__init__", counting_init)
        config = RobustnessConfig(base=make_cfg(SET1), n_dt=2,
                                  xi_values=tuple(x * SET1["j"] for x in (0.0, 0.005, 0.01)))
        assert len(run_robustness(config, basis15)) == 3
        assert built == [basis15]

    def test_each_hop_is_enumerated_once_per_basis(self, basis5, monkeypatch):
        """Every H of a sweep, and of a protocol run, is scaled from the hops its mode basis
        enumerated once; a hop whose coupling is 0 is never enumerated, nor the nu hop, as
        the nu pulse runs as the ring rotation of a mu pulse."""
        calls, hop_entries = [], model.hop_entries

        def counting(basis, *slots):
            calls.append((id(basis), slots))
            return hop_entries(basis, *slots)

        monkeypatch.setattr(model, "hop_entries", counting)
        cfg = ProtocolConfig(1, 4, **SET1)
        config = RobustnessConfig(base=cfg, n_dt=2, protocol=2,
                                  xi_values=tuple(x * SET1["j"] for x in (0.0, 0.005, 0.01)))
        assert len(run_robustness(config, basis5)) == 3
        assert len(calls) == len(set(calls)) == 4   # J, mu and the two detuning hops
        calls.clear()
        run_protocol2(cfg, P_THETA / cfg.p_occ, FullDynamics(basis5))
        assert len(calls) == len(set(calls)) == 2   # J and mu


class TestNuPulse:
    @pytest.mark.parametrize("nu", [None, 30.0])
    @pytest.mark.parametrize("source", ["direct", "physical"])
    def test_no_operator_has_a_nu_field(self, basis5, monkeypatch, source, nu):
        """A Protocol II robustness sweep, protocol run and readout build every H, blocked
        or sparse, with nu = 0: the nu pulse is the ring rotation of its mu form.  At nu = mu
        the sweep's points each hold one pulse."""
        built, entries = [], model.NormalModes.entries

        def recording(terms, params):
            built.append(params)
            return entries(terms, params)

        monkeypatch.setattr(model.NormalModes, "entries", recording)
        couplings = SET1 if nu is None else {**SET1, "nu": nu}
        cfg = ProtocolConfig(1, 4, **couplings)
        config = RobustnessConfig(base=cfg, n_dt=2, protocol=2, trap=trap_of(source),
                                  xi_values=tuple(x * SET1["j"] for x in (0.0, 0.01)))
        assert len(run_robustness(config, basis5)) == 2
        pulses = sum(params.mu != 0.0 for params in built)
        assert pulses == 2 * (1 if nu is None else 2)   # per point
        run_protocol2(cfg, P_THETA / cfg.p_occ, FullDynamics(basis5))
        read_out(cfg, P_THETA / cfg.p_occ, FullDynamics(basis5), 2)
        assert len(built) > pulses and all(params.nu == 0.0 for params in built)


class TestPhysicalSource:
    def test_smoke_point(self, basis15):
        point = sweep_point(
            SET1, basis15, 0.001, n_dt=2, trap=TrapParameters(),
        )
        assert 0.0 <= point.fidelity <= 1.0
        assert 0.0 < point.probability <= 1.0

    def test_out_of_reach_grid_runs_no_point(self, basis15, monkeypatch):
        """The whole grid is checked against the reachable U0 - U13 before the first point."""
        runs = []
        monkeypatch.setattr(robustness, "_run_point", lambda *args: runs.append(args))
        config = RobustnessConfig(
            base=make_cfg(SET1), xi_values=(0.0, 0.01 * SET1["j"], 5.0 * SET1["j"]),
            trap=TrapParameters())
        with pytest.raises(ValueError, match=r"^physical source: xi = .* \(xi/J = 5\) needs"):
            run_robustness(config, basis15)
        assert runs == []

    def test_bracket_ends_are_evaluated_once_per_sweep(self, basis15, monkeypatch):
        """The root finder reuses the U0 - U13 that the reach check computed at the ends."""
        config = RobustnessConfig(
            base=make_cfg(SET1), xi_values=tuple(np.linspace(0.0, 0.01 * SET1["j"], 3)),
            trap=TrapParameters())
        _, ends = robustness._physical_root(config)
        omegas = []
        residual = lattice.integrability_residual

        def recording_residual(trap, omega_r):
            omegas.append(omega_r)
            return residual(trap, omega_r)

        # the physical-source helpers import the lattice's names when they run
        monkeypatch.setattr(lattice, "integrability_residual", recording_residual)
        monkeypatch.setattr(robustness, "_run_point", lambda *args: None)
        run_robustness(config, basis15)
        assert len(ends) == 2
        for omega_r in ends:
            assert omegas.count(omega_r) == 1
        assert len(omegas) > 2 + 2 * len(config.xi_values)   # a root-find for each sign of xi

    def test_zero_detuning_takes_one_root_find(self, basis15, monkeypatch):
        """+xi and -xi are one target at xi = 0, so a grid from 0 takes 2 points - 1 root-finds."""
        targets = []
        solve = robustness._solve_detuned_omega

        def counting_solve(trap, target, ends):
            targets.append(target)
            return solve(trap, target, ends)

        monkeypatch.setattr(robustness, "_solve_detuned_omega", counting_solve)
        monkeypatch.setattr(robustness, "_run_point", lambda *args: None)
        config = RobustnessConfig(
            base=make_cfg(SET1), xi_values=tuple(np.linspace(0.0, 0.01 * SET1["j"], 3)),
            trap=TrapParameters())
        run_robustness(config, basis15)
        assert len(targets) == 2 * len(config.xi_values) - 1

    def test_lattice_depth_is_computed_once_per_frequency(self, basis15, monkeypatch):
        """V0 once at the root and once at each detuned frequency, where `derive` hands it
        on with the couplings."""
        omegas, v0_from_omega_r = [], lattice.v0_from_omega_r

        def recording(trap, omega_r):
            omegas.append(omega_r)
            return v0_from_omega_r(trap, omega_r)

        monkeypatch.setattr(lattice, "v0_from_omega_r", recording)
        monkeypatch.setattr(robustness, "_run_point", lambda *args: None)
        config = RobustnessConfig(
            base=make_cfg(SET1), xi_values=tuple(np.linspace(0.0, 0.01 * SET1["j"], 3)),
            trap=TrapParameters())
        run_robustness(config, basis15)
        assert len(omegas) == len(set(omegas)) == 1 + 2 * len(config.xi_values) - 1

    def test_detuned_frequencies_match_brentq(self):
        """Both signs of each xi of the default grid, from the bracket ends that the reach
        check evaluated.  At xi/J = 0.0168 the root-finder's last point is a bisection
        1e-10 off the root, so it must return its best point instead."""
        trap = TrapParameters()
        xi_values = tuple(np.linspace(0.0, 0.02 * SET1["j"], 20))
        config = RobustnessConfig(base=make_cfg(SET1), xi_values=xi_values, trap=trap)
        _, ends = robustness._physical_root(config)
        for target in (*xi_values, *(-xi for xi in xi_values)):
            reference = optimize.brentq(
                lambda w: lattice.integrability_residual(trap, w) - target, *ends,
                xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
            assert robustness._solve_detuned_omega(trap, target, ends) == pytest.approx(
                reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("xi_over_j_max", [0.02, 0.001])
    def test_detuned_frequencies_land_far_inside_their_tolerance(self, xi_over_j_max):
        """A fidelity moves by ~1e-7 per 1e-10 relative move of omega, so the 12 digits of
        a table need each omega within ~1e-13 of the root, not the rtol of 1e-10 alone.
        Checked on 20-point grids to xi/J = 0.02 (the CLI default) and 0.001."""
        trap = TrapParameters()
        xi_values = tuple(np.linspace(0.0, xi_over_j_max * SET1["j"], 20))
        config = RobustnessConfig(base=make_cfg(SET1), xi_values=xi_values, trap=trap)
        _, ends = robustness._physical_root(config)
        (lo, f_lo), (hi, f_hi) = ends.items()
        for target in (*xi_values, *(-xi for xi in xi_values)):
            reference = lattice._find_root(
                lambda w: lattice.integrability_residual(trap, w) - target,
                lo, hi, f_lo - target, f_hi - target, rtol=2e-15)
            assert robustness._solve_detuned_omega(trap, target, ends) == pytest.approx(
                reference, rel=1e-13, abs=0.0)


def detuned_system(config, basis, xi):
    """The system `run_robustness` builds at xi, with its couplings."""
    if config.trap is None:
        return robustness._direct_system(config, NormalModes(basis), xi)
    return robustness._physical_system(
        config, NormalModes(basis), robustness._physical_root(config), xi)


class DenseSystem:
    """The site-basis reference: dense H(+xi), H(-xi), mu and nu pulse matrices,
    evolved slice by slice."""

    def __init__(self, config, basis, cfg, matrices):
        self.config, self.basis, self.cfg = config, basis, cfg
        self.h_plus, self.h_minus, self.h_mu, self.h_nu = (
            dense_operator(basis, matrix) for matrix in matrices)

    def band(self, state, cfg, t):
        if self.config.mode == "static":
            return evolve(state, self.h_plus, t)
        first, second = (self.h_plus, self.h_minus)[::self.config.start_sign]
        dt = t / (2 * self.config.n_dt)
        for _ in range(self.config.n_dt):
            state = evolve(evolve(state, first, dt), second, dt)
        return state

    def mu_segment(self, state, cfg, theta):
        t_mu = np.asarray(theta) / (2.0 * cfg.mu)
        return evolve(self.band(state, cfg, cfg.t_m - t_mu), self.h_mu, t_mu)

    def nu_segment(self, state, cfg):
        return evolve(self.band(state, cfg, cfg.t_m - cfg.t_nu), self.h_nu, cfg.t_nu)


class TestParityBlocks:
    """Robustness runs in the normal-mode parity blocks and matches the dense site basis."""

    def test_sources_realize_opposite_detunings(self):
        basis = enumerate_basis(7)
        xi = 0.02 * SET1["j"]
        for source, sign in (("direct", -1.0), ("physical", 1.0)):
            config = RobustnessConfig(base=make_cfg(SET1), xi_values=(xi,), trap=trap_of(source))
            plus, minus, mu_pulse, nu_pulse = detuned_system(config, basis, xi).couplings
            for params, detuning in ((plus, xi), (minus, -xi), (mu_pulse, xi), (nu_pulse, xi)):
                # direct: U13 - U0 = +xi; physical: U0 - U13 = +xi
                assert params.u0 - params.u13 == pytest.approx(sign * detuning, rel=1e-6)

    @pytest.mark.parametrize("source", ["direct", "physical"])
    def test_no_eigh_wider_than_a_parity_block(self, basis15, source, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(matrices):
            shapes.append(matrices.shape)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        # H(+-xi) has the parity blocks 240/204/204/168 of the dense 816.  Each H takes
        # three eigh: the rotation halves of 240 and of 168, and one 204 block, whose
        # rotation image is the other.  A pulse H is never diagonalized.
        per_hamiltonian = [(2, 120, 120), (1, 204, 204), (2, 84, 84)]
        for protocol in (1, 2):
            shapes.clear()
            config = RobustnessConfig(
                base=make_cfg(SET1), xi_values=(0.01 * SET1["j"],), n_dt=2,
                protocol=protocol, trap=trap_of(source))
            run_robustness(config, basis15)
            assert shapes == 2 * per_hamiltonian   # H(+xi) and H(-xi), once per point

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("mode", ["pulsed", "static"])
    @pytest.mark.parametrize("source", ["direct", "physical"])
    def test_matches_the_dense_site_basis(self, source, mode, protocol):
        basis = enumerate_basis(7)   # M + P
        base = ProtocolConfig(2, 5, **SET1)
        config = RobustnessConfig(
            base=base, xi_values=tuple(x * SET1["j"] for x in (0.0, 0.01, 0.05)),
            n_dt=5, mode=mode, protocol=protocol, start_sign=-1, trap=trap_of(source))
        points = run_robustness(config, basis)
        for point in points:
            system = detuned_system(config, basis, point.xi)
            if source == "direct":   # H(+-xi) = H_integrable +- xi (N1 N3 + N2 N4)
                bump = point.xi * detuning_operator(basis)
                free, mu_pulse, nu_pulse = (hamiltonian_matrix(7, params.to_dict()) for params in (
                    base.params, base.params.with_fields(mu=base.mu, nu=0.0),
                    base.params.with_fields(mu=0.0, nu=-base.nu)))
                matrices = (free + bump, free - bump, mu_pulse + bump, nu_pulse + bump)
            else:   # the hook gives the nu pulse's mu form, mu = nu: its nu form is nu = -mu
                *couplings, mu_form = system.couplings
                couplings.append(mu_form.with_fields(mu=0.0, nu=-mu_form.mu))
                matrices = [hamiltonian_matrix(7, params.to_dict()) for params in couplings]
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
            RobustnessPoint(xi=x, fidelity=f, probability=None)
            for x, f in pairs
        ]

    def test_largest_passing_value(self):
        points = self.make_points([(0.001, 0.99), (0.005, 0.95), (0.02, 0.4)])
        assert threshold_xi(points) == pytest.approx(0.005)

    def test_none_when_nothing_passes(self):
        points = self.make_points([(0.01, 0.5), (0.02, 0.3)])
        assert threshold_xi(points) is None

    def test_a_revival_past_the_first_failure_does_not_count(self):
        """F falls below the level and comes back above it once further out, as at
        N = 21, (M, P) = (4, 17): the threshold stays below the first failure."""
        grid = [(0.0, 0.999), (0.00105, 0.97), (0.0021, 0.93), (0.00316, 0.565),
                (0.0042, 0.906), (0.00526, 0.334), (0.0063, 0.2)]
        assert threshold_xi(self.make_points(grid)) == pytest.approx(0.0021)
        assert threshold_xi(self.make_points(grid[::-1])) == pytest.approx(0.0021)
        assert threshold_xi(self.make_points([(-x, f) for x, f in grid])) == pytest.approx(0.0021)

    def test_none_when_the_smallest_detuning_fails(self):
        points = self.make_points([(0.0, 0.85), (0.001, 0.95), (0.002, 0.97)])
        assert threshold_xi(points) is None


class TestSparsePulse:
    """The pulses of the detuned dynamics are sparse H, applied to states by the Chebyshev
    series of exp(-i H t) and never diagonalized."""

    def system(self, basis, xi_over_j, source="direct"):
        base = ProtocolConfig(M_OCC, basis.n_total - M_OCC, **SET1)
        config = RobustnessConfig(base=base, xi_values=(xi_over_j * SET1["j"],),
                                  trap=trap_of(source))
        return detuned_system(config, basis, xi_over_j * SET1["j"])

    def mode_state(self, system):
        """|M,P,0,0> after a band interval, in the mode basis: many modes occupied."""
        cfg = system.cfg
        start = QuantumState.from_fock(system.basis, (cfg.m_occ, cfg.p_occ, 0, 0))
        band = system.band(start, system.cfg, 0.3 * system.cfg.t_m)
        return system.modes.change(band, system.modes.basis)

    @pytest.mark.parametrize("source", ["direct", "physical"])
    @pytest.mark.parametrize("xi_over_j", [0.0, 0.01])
    def test_matches_the_eigensystem_pulse(self, basis15, source, xi_over_j):
        system = self.system(basis15, xi_over_j, source)
        state = self.mode_state(system)
        t_mu = system.cfg.t_mu(P_THETA / system.cfg.p_occ)
        for params, t in zip(system.couplings[2:], (t_mu, system.cfg.t_nu)):
            pulse = system.hamiltonian(params)
            assert isinstance(pulse, _SparseHamiltonian)
            sparse = evolve(state, pulse, t)
            blocked = evolve(state, build_mode_hamiltonian(params, system.modes), t)
            np.testing.assert_allclose(sparse.amplitudes, blocked.amplitudes, rtol=0, atol=1e-12)
            assert np.linalg.norm(sparse.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_stack_of_durations_matches_single_runs(self, basis15):
        system = self.system(basis15, 0.01)
        state = self.mode_state(system)
        pulse = system.hamiltonian(system.couplings[2])
        durations = np.array([0.2, 0.9, 0.5]) * np.pi / (2.0 * system.cfg.mu)   # theta / (2 mu)
        stack = QuantumState(state.basis, np.column_stack([state.amplitudes] * 3))
        evolved = evolve(stack, pulse, durations)
        for column, t in zip(evolved.amplitudes.T, durations):
            np.testing.assert_array_equal(column, evolve(state, pulse, t).amplitudes)

    def test_evolve_contracts(self, basis15):
        system = self.system(basis15, 0.01)
        state = self.mode_state(system)
        pulse = system.hamiltonian(system.couplings[3])
        stack = QuantumState(state.basis, np.column_stack([state.amplitudes] * 3))
        evolved = evolve(stack, pulse, [0.0, system.cfg.t_nu, 0.0])
        np.testing.assert_array_equal(evolved.amplitudes[:, [0, 2]], stack.amplitudes[:, [0, 2]])
        with pytest.raises(ValueError):
            evolve(state, pulse, -1e-3)
        with pytest.raises(ValueError):   # a site-basis state
            evolve(system.modes.change(state, system.basis), pulse, 1e-3)
        overflowing = system.couplings[2].with_fields(mu=1e308, nu=0.0)
        with pytest.raises(ArithmeticError):
            _sparse_mode_hamiltonian(overflowing, system.modes)
        huge = _sparse_mode_hamiltonian(overflowing.with_fields(mu=1e300, nu=0.0),
                                        system.modes)
        with pytest.raises(ArithmeticError):   # ||H|| t overflows
            evolve(state, huge, 1e10)

    def test_deterministic_and_leaves_the_global_random_state(self):
        """Protocol II at N = 15 and an N = 21 nu pulse, whose Gershgorin half-width x t
        (163) takes a Chebyshev series of 227 terms."""
        before = np.random.get_state()
        basis = enumerate_basis(M_OCC + P_OCC)
        config = RobustnessConfig(base=make_cfg(SET1), xi_values=(0.01 * SET1["j"],), n_dt=2,
                                  protocol=2)
        runs = [run_robustness(config, basis)[0].fidelity for _ in range(2)]
        system = self.system(enumerate_basis(21), 0.01)
        state = self.mode_state(system)
        pulse = system.hamiltonian(system.couplings[3])
        assert pulse.radius * system.cfg.t_nu > 150.0
        pulses = [evolve(state, pulse, system.cfg.t_nu).amplitudes for _ in range(2)]
        assert runs[0] == runs[1]
        np.testing.assert_array_equal(*pulses)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])
