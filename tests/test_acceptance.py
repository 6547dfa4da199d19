"""Acceptance battery: one test per top-level requirement of the simulator.

Each criterion gets exactly one test function so `pytest -v` prints one
pass/fail line per requirement.  Numerical targets and tolerances are
stated inline next to each assertion; timed criteria use wall-clock
guards with generous margins over the observed runtimes.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from noonring.dynamics import site_probabilities
from noonring.fock import QuantumState, enumerate_basis
from noonring.lattice import TrapParameters, derive, recoil_energy, solve_integrability
from noonring.model import ModelParameters, NormalModes, build_mode_hamiltonian
from noonring.protocols import (
    FullDynamics,
    ProtocolConfig,
    band_trace,
    fit_readout_amplitudes,
    run_protocol1,
    run_protocol2,
)
from noonring.robustness import RobustnessConfig, run_robustness, threshold_xi
from noonring.spectrum import assign_bands, predicted_band_sizes

import oracle
from conftest import BRACKET, M_OCC, P_OCC, SET1, SET2, read_out
from test_model import diagonal_band_energy

P_THETA_BENCHMARKS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, math.pi)


def eigenvalues(h):
    """Every eigenvalue of a block operator, ascending; an entry that also acts on the ring
    rotation's images of its blocks (twice as many rows as values) counts twice."""
    return np.sort(np.concatenate([np.tile(values.ravel(), rows // values.size)
                                   for (values, _), rows in zip(h.eigensystem(), h.rows)]))


# Protocol I success probability and NOON fidelity per post-selected
# branch; the same four values hold at every benchmark P*theta.
PROTOCOL1_TARGETS = {
    "set1": {0: (0.5009, 0.9977), M_OCC: (0.4956, 0.9996)},
    "set2": {0: (0.4922, 0.9642), M_OCC: (0.4629, 0.9886)},
}
PROTOCOL1_TOLERANCE = {"set1": 0.003, "set2": 0.005}

READOUT_FIT_TARGETS = {"c00": 0.938, "cMM": 0.893, "c0": 0.954, "cM": 0.909}


def make_cfg(couplings):
    return ProtocolConfig(M_OCC, P_OCC, **couplings)


def selected_reports(cfg, theta, dynamics):
    return {
        report.outcome: report
        for report in run_protocol1(cfg, theta, dynamics)
        if report.selected
    }


def test_criterion_1_derived_time_scales():
    start = time.perf_counter()
    cfg = make_cfg(SET1)
    t_mu = cfg.t_mu(math.pi / P_OCC)
    elapsed = time.perf_counter() - start
    assert cfg.t_m == pytest.approx(36.950, rel=1e-3)
    assert cfg.t_nu == pytest.approx(0.00941, rel=1e-2)
    assert t_mu == pytest.approx(0.00684, rel=1e-2)
    assert elapsed < 0.1  # pure arithmetic; milliseconds, not seconds


def test_criterion_2_protocol1_benchmarks(full15):
    start = time.perf_counter()
    for name, couplings in (("set1", SET1), ("set2", SET2)):
        tolerance = PROTOCOL1_TOLERANCE[name]
        for p_theta in P_THETA_BENCHMARKS:
            branches = selected_reports(make_cfg(couplings), p_theta / P_OCC, full15)
            assert set(branches) == {0, M_OCC}
            for outcome, (target_p, target_f) in PROTOCOL1_TARGETS[name].items():
                report = branches[outcome]
                assert report.probability == pytest.approx(
                    target_p, abs=tolerance)
                assert report.fidelity == pytest.approx(target_f, abs=tolerance)
    assert time.perf_counter() - start < 60.0


def test_criterion_3_protocol2_fidelity_floor(full15):
    grid = np.linspace(0.0, math.pi, 64)
    for couplings in (SET1, SET2):
        cfg = make_cfg(couplings)
        for p_theta in grid:
            theta = float(p_theta) / P_OCC
            f2 = run_protocol2(cfg, theta, full15).fidelity
            assert f2 > 0.9
            if couplings is SET1:
                f1_branches = [
                    r.fidelity for r in selected_reports(cfg, theta, full15).values()
                ]
                assert f2 <= min(f1_branches) + 1e-9


def test_criterion_4_readout_laws_and_fit_coefficients(full15, ideal15):
    # Ideal-limit interference laws, exact to 1e-10.
    cfg = make_cfg(SET1)
    for p_theta in np.linspace(0.0, math.pi, 9):
        theta = float(p_theta) / P_OCC
        half_cos2 = 0.5 * math.cos(0.5 * p_theta) ** 2
        half_sin2 = 0.5 * math.sin(0.5 * p_theta) ** 2
        for report, distribution in read_out(cfg, theta, ideal15, 1):
            joint = report.probability * distribution
            same = half_cos2 if report.outcome == 0 else half_sin2
            assert joint[report.outcome] == pytest.approx(same, abs=1e-10)
            other = M_OCC if report.outcome == 0 else 0
            assert joint[other] == pytest.approx(0.5 - same, abs=1e-10)
        ((_, outcomes),) = read_out(cfg, theta, ideal15, 2)
        shifted = 0.5 * p_theta - 0.25 * math.pi
        assert outcomes[0] == pytest.approx(math.sin(shifted) ** 2, abs=1e-10)
        assert outcomes[M_OCC] == pytest.approx(math.cos(shifted) ** 2, abs=1e-10)

    # Full-simulation fringe amplitudes at the second coupling set.
    zero1, m1, zero2, m2 = [], [], [], []
    cfg = make_cfg(SET2)
    for p_theta in np.linspace(0.0, math.pi, 64):
        theta = float(p_theta) / P_OCC
        for report, distribution in read_out(cfg, theta, full15, 1):
            joint = report.probability * distribution
            zero1.append((float(p_theta), joint[0]))
            m1.append((float(p_theta), joint[M_OCC]))
        ((_, conditional),) = read_out(cfg, theta, full15, 2)
        zero2.append((float(p_theta), conditional[0]))
        m2.append((float(p_theta), conditional[M_OCC]))
    fits = {
        "c00": 2.0 * fit_readout_amplitudes(zero1, "cos2"),
        "cMM": 2.0 * fit_readout_amplitudes(m1, "sin2"),
        "c0": fit_readout_amplitudes(zero2, "shifted_sin2"),
        "cM": fit_readout_amplitudes(m2, "shifted_cos2"),
    }
    for key, target in READOUT_FIT_TARGETS.items():
        assert fits[key] == pytest.approx(target, abs=0.02)


def test_criterion_5_conservation_and_band_structure():
    # Charge conservation at integrable couplings, in tunneling units.
    params = ModelParameters.integrable_set(u=SET1["u"] / SET1["j"], j=1.0)
    for n_total in (3, 5, 15):
        h = oracle.hamiltonian_matrix(n_total, params.to_dict())
        for which in ("Q1", "Q2"):
            charge = oracle.charge_matrix(n_total, which)
            assert oracle.commutator_norm(h, charge) < 1e-11

    # Exact band counts deep in the resonant-tunneling regime.
    deep = ModelParameters.integrable_set(u=30.0, j=1.0)
    for n_total in (3, 4, 5, 15):
        basis = enumerate_basis(n_total)
        h = build_mode_hamiltonian(deep, NormalModes(basis))
        assert assign_bands(eigenvalues(h), n_total) > 3.0   # gap / spread
        expected = tuple(
            (m + 1) * (p + 1) * (1 if m == p else 2)
            for m, p in ((m, n_total - m) for m in range(n_total // 2 + 1))
        )
        sizes = tuple(size for _, size in predicted_band_sizes(n_total))
        assert sizes == expected
        assert sum(sizes) == basis.size

    # Zero-tunneling diagonal energies match the closed-form band energy.
    flat = ModelParameters.integrable_set(u=4.0, j=0.0, u0=2.5)
    for n_total in (3, 5):
        basis = enumerate_basis(n_total)
        diagonal = np.diag(oracle.hamiltonian_matrix(n_total, flat.to_dict()))
        for k, occ in enumerate(basis):
            pair = sorted((occ[0] + occ[2], occ[1] + occ[3]))
            predicted = diagonal_band_energy(flat, pair[0], pair[1])
            assert abs(diagonal[k] - predicted) <= 1e-12 * max(1.0, abs(predicted))


def test_criterion_6_effective_hamiltonian_equivalence(basis15):
    u, j = SET1["u"], SET1["j"]
    omega = j**2 / (4.0 * u * ((M_OCC - P_OCC) ** 2 - 1))
    h_sq = oracle.operator_matrix(15, lambda state: oracle.apply_effective_sq(
        state, M_OCC, P_OCC, j, u))
    h_charges = oracle.operator_matrix(15, lambda state: oracle.apply_effective_charges(
        state, 15, omega))
    occ = basis15.occupations
    half = np.nonzero(occ[:, 0] + occ[:, 2] == M_OCC)[0]
    assert half.size == (M_OCC + 1) * (P_OCC + 1)
    sub_sq = h_sq[np.ix_(half, half)]
    sub_charges = h_charges[np.ix_(half, half)]
    shift = (sub_sq - sub_charges)[0, 0]
    spectrum_sq = np.linalg.eigvalsh(sub_sq) - shift
    spectrum_charges = np.linalg.eigvalsh(sub_charges)
    scale = np.max(np.abs(spectrum_charges))
    np.testing.assert_allclose(
        spectrum_sq, spectrum_charges, rtol=1e-9, atol=1e-9 * scale)

    # The evolve kind's band trace: row 5 is |<full(t)|eff(t)>|.
    cfg = make_cfg(SET1)
    overlap = band_trace(cfg, basis15, np.linspace(0.0, cfg.t_m, 64))[5]
    assert np.max(1.0 - overlap) < 0.1


def test_criterion_7_lattice_calibration():
    trap = TrapParameters()  # scattering length -21 a0
    root = solve_integrability(trap, BRACKET)
    assert root == pytest.approx(2 * math.pi * 37.078e3, rel=0.01)
    at_root = derive(trap, root, dx=0.2e-6, dy=-0.2e-6)
    assert at_root.u0 == pytest.approx(161.282, rel=0.02)

    shifted = TrapParameters(scattering_length_a0=-20.85)
    root2 = solve_integrability(shifted, BRACKET)
    assert root2 == pytest.approx(2 * math.pi * 31.610e3, rel=0.01)

    assert recoil_energy(trap) == pytest.approx(26894.0, rel=0.005)

    assert at_root.mu == pytest.approx(20.870, rel=0.05)


def test_criterion_8_detuning_robustness(basis15):
    base1 = make_cfg(SET1)
    base2 = make_cfg(SET2)

    start = time.perf_counter()
    grid = RobustnessConfig(
        base=base1, n_dt=100,
        xi_values=tuple(np.linspace(0.0, 0.012 * SET1["j"], 20)),
    )
    points = run_robustness(grid, basis15)
    assert time.perf_counter() - start < 600.0
    assert threshold_xi(points) >= 0.01

    pulsed1 = RobustnessConfig(base=base1, xi_values=(0.010 * SET1["j"],), n_dt=100)
    assert run_robustness(pulsed1, basis15)[0].fidelity > 0.9
    pulsed2 = RobustnessConfig(base=base2, xi_values=(0.015 * SET2["j"],), n_dt=100)
    assert run_robustness(pulsed2, basis15)[0].fidelity > 0.9

    static = RobustnessConfig(
        base=base1, xi_values=(0.0005 * SET1["j"],), mode="static")
    assert run_robustness(static, basis15)[0].fidelity < 0.9


def test_criterion_9_property_and_oracle_suite():
    couplings = {
        "u0": 2.2, "u12": 1.3, "u13": 2.2, "u14": 1.3,
        "u23": 1.3, "u24": 2.2, "u34": 1.3,
        "j": 0.9, "mu": 0.4, "nu": 0.25,
    }
    params = ModelParameters(
        u0=couplings["u0"], u12=couplings["u12"], u13=couplings["u13"], j=couplings["j"],
        mu=couplings["mu"], nu=couplings["nu"],
    )
    assert params.to_dict() == couplings

    for n_total in (2, 3):
        basis = enumerate_basis(n_total)
        h = build_mode_hamiltonian(params, NormalModes(basis))
        states = oracle.sector_states(n_total)
        reference = oracle.hamiltonian_matrix(n_total, couplings)

        # Hermiticity and spectral agreement with the brute-force matrix.
        for _, matrices in h.blocks:
            np.testing.assert_allclose(
                matrices, np.swapaxes(matrices, -1, -2).conj(), atol=1e-14)
        np.testing.assert_allclose(
            eigenvalues(h), np.linalg.eigvalsh(reference), atol=1e-10)

        # Basis round trip.
        for k in range(basis.size):
            assert basis.index_of(basis.occupations[k]) == k

        # Evolve the full-occupation corner state both ways.
        initial_occ = (n_total, 0, 0, 0)
        evolved = FullDynamics(basis).evolve(
            QuantumState.from_fock(basis, initial_occ), [(params, 0.7)])
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-12)  # unitarity

        propagator = scipy.linalg.expm(-0.7j * reference)
        column = propagator[:, states.index(initial_occ)]
        reference_state = {occ: amp for occ, amp in zip(states, column)}

        for site in (1, 2, 3, 4):
            ours = site_probabilities(evolved, site)
            theirs = oracle.site_distribution(reference_state, site)
            assert ours.sum() == pytest.approx(1.0, abs=1e-12)
            for outcome in range(n_total + 1):
                assert ours[outcome] == pytest.approx(
                    theirs.get(outcome, 0.0), abs=1e-10)

        # Fidelity is invariant under a global phase.
        rotated = QuantumState(basis, np.exp(0.31j) * evolved.amplitudes)
        assert abs(np.vdot(evolved.amplitudes, rotated.amplitudes)) == pytest.approx(1.0, abs=1e-12)
