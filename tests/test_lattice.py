"""Dipolar-lattice couplings, integrability root, and field strengths."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize

from noonring.lattice import (
    DY_MOMENT_CALIBRATED,
    HBAR,
    QuadratureError,
    TrapParameters,
    anisotropy_f,
    derive,
    dipolar_coupling,
    field_strengths,
    integrability_residual,
    model_parameters_from_lattice,
    offsite_coupling,
    onsite_dipolar,
    solve_integrability,
    v0_from_omega_r,
)

WORKING_OMEGA = 2.0 * math.pi * 37.078e3  # rad/s, default-trap root


def calibrate_moment(trap, target_omega_r, bracket_mub=(9.0, 11.0)):
    """Magnetic moment (in mu_B) placing the integrability root at target_omega_r:
    the mu1 at which U0(target) = U13(target)."""
    def residual(moment):
        candidate = dataclasses.replace(trap, magnetic_moment_mub=moment)
        return integrability_residual(candidate, target_omega_r)

    lo, hi = bracket_mub
    assert residual(lo) * residual(hi) < 0.0, f"no calibrating moment in [{lo}, {hi}] mu_B"
    return float(optimize.brentq(residual, lo, hi, rtol=1e-10))


class TestAnisotropyFunction:
    def test_limits_and_anchors(self):
        assert anisotropy_f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert anisotropy_f(1e-5) == pytest.approx(1.0, abs=1e-3)
        assert anisotropy_f(1e5) == pytest.approx(-2.0, abs=1e-3)

    def test_monotone_decreasing(self):
        grid = np.logspace(-2, 2, 41)
        values = [anisotropy_f(k) for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_continuity_across_unity(self):
        # The closed forms are 0/0 at kappa = 1; the series branch has to
        # join them smoothly from both sides.
        left = anisotropy_f(1.0 - 2e-5)
        series = anisotropy_f(1.0 - 1e-6)
        right = anisotropy_f(1.0 + 2e-5)
        assert left > series > right
        assert abs(left - right) < 2e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            anisotropy_f(0.0)


class TestTrapParameters:
    def test_geometry(self):
        trap = TrapParameters()
        assert trap.lattice_spacing == pytest.approx(trap.wavelength / 2.0)
        assert trap.wavenumber == pytest.approx(2.0 * math.pi / trap.wavelength)
        assert trap.kappa == pytest.approx(math.sqrt(trap.kappa_sq))
        expected_delta = 1.0 + 2.0 * trap.v1_ratio / (
            trap.wavenumber**2 * trap.w1**2)
        assert trap.delta == pytest.approx(expected_delta)
        assert trap.diagonal_distance() == pytest.approx(
            math.sqrt(2.0) * trap.nearest_distance())

    def test_validation(self):
        with pytest.raises(ValueError):
            TrapParameters(wavelength=-1.0)
        with pytest.raises(ValueError):
            TrapParameters(kappa_sq=0.0)
        with pytest.raises(ValueError):
            TrapParameters(w_b=0.0)


class TestDepthAndFrequencies:
    def test_v0_round_trip(self):
        trap = TrapParameters()
        v0 = v0_from_omega_r(trap, WORKING_OMEGA)
        recovered = math.sqrt(
            2.0 * (v0 * trap.wavenumber**2 + 2.0 * trap.v1_ratio * v0 / trap.w1**2)
            / trap.mass)
        assert recovered == pytest.approx(WORKING_OMEGA, rel=1e-12)

    def test_v0_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            v0_from_omega_r(TrapParameters(), 0.0)

    def test_aspect_ratio_self_consistency(self):
        # The default kappa_sq must match the accordion-depth formula at the
        # working point to well under a percent.
        trap = TrapParameters()
        derived = derive(trap, WORKING_OMEGA)
        assert derived.omega_z_check / derived.omega_r == pytest.approx(
            trap.kappa_sq, rel=2e-3)


class TestDipolarCouplings:
    def test_short_distance_limit_matches_onsite_dipolar(self):
        trap = TrapParameters()
        limit = dipolar_coupling(trap, WORKING_OMEGA, 1e-12)
        assert limit == pytest.approx(onsite_dipolar(trap, WORKING_OMEGA), rel=1e-6)

    def test_couplings_decay_with_distance(self):
        trap = TrapParameters()
        near = offsite_coupling(trap, WORKING_OMEGA, "nearest")
        far = offsite_coupling(trap, WORKING_OMEGA, "diagonal")
        assert near > far > 0.0

    def test_square_plaquette_symmetry(self):
        # The four nearest-neighbor couplings are the same integral at the
        # same distance; evaluate it independently four times.
        trap = TrapParameters()
        values = [
            dipolar_coupling(trap, WORKING_OMEGA, trap.nearest_distance())
            for _ in range(4)
        ]
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            offsite_coupling(TrapParameters(), WORKING_OMEGA, "skew")

    def test_quadrature_tolerance_enforced(self):
        with pytest.raises(QuadratureError):
            dipolar_coupling(TrapParameters(), WORKING_OMEGA,
                             TrapParameters().nearest_distance(), rel_tol=1e-16)


class TestIntegrabilityRoot:
    def test_root_consistency(self):
        root = solve_integrability(TrapParameters())
        assert abs(root.residual) / root.u0 < 1e-6
        assert root.u0 == pytest.approx(root.u13, rel=1e-6)
        assert integrability_residual(TrapParameters(), root.omega_r) == (
            pytest.approx(0.0, abs=1e-6 * root.u0))

    def test_no_root_in_bad_bracket(self):
        with pytest.raises(ValueError):
            solve_integrability(
                TrapParameters(),
                bracket=(2.0 * math.pi * 100e3, 2.0 * math.pi * 200e3))

    def test_calibrated_moment_is_pinned(self):
        recomputed = calibrate_moment(
            TrapParameters(), WORKING_OMEGA)
        assert recomputed == pytest.approx(DY_MOMENT_CALIBRATED, abs=1e-6)


class TestFieldStrengths:
    def test_formulas_and_sign_structure(self):
        trap = TrapParameters()
        v0 = v0_from_omega_r(trap, WORKING_OMEGA)
        scale = 2.0 * trap.vb_ratio * v0 * trap.lattice_spacing / (
            trap.w_b**2 * trap.delta * HBAR)
        mu, nu = field_strengths(trap, v0, 0.2e-6, -0.2e-6)
        assert mu == pytest.approx(scale * 0.4e-6)
        assert nu == pytest.approx(0.0, abs=1e-12)
        mu, nu = field_strengths(trap, v0, 0.2e-6, 0.2e-6)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert nu == pytest.approx(scale * 0.4e-6)
        assert field_strengths(trap, v0, 0.0, 0.0) == (0.0, 0.0)

    def test_displacement_bounded_by_waist(self):
        trap = TrapParameters()
        v0 = v0_from_omega_r(trap, WORKING_OMEGA)
        with pytest.raises(ValueError):
            field_strengths(trap, v0, trap.w_b, 0.0)


class TestEndToEndChain:
    def test_derive_feeds_protocol_parameters(self, set1):
        trap = TrapParameters()
        root = solve_integrability(trap)
        derived = derive(trap, root.omega_r, dx=0.2e-6, dy=-0.2e-6)
        params = model_parameters_from_lattice(derived, j=set1["j"])
        assert params.integrable()
        assert params.coupling_u() == pytest.approx(derived.coupling_u)
        # The physical chain reproduces the benchmark couplings closely
        # enough to feed the protocols directly.
        assert derived.coupling_u == pytest.approx(set1["u"], rel=0.01)
        assert derived.mu == pytest.approx(set1["mu"], rel=0.01)

    def test_scattering_length_shifts_the_root(self):
        base = solve_integrability(TrapParameters())
        shifted = solve_integrability(
            dataclasses.replace(TrapParameters(), scattering_length_a0=-20.85))
        assert shifted.omega_r < base.omega_r
