"""Dipolar-lattice couplings, integrability root, and field strengths."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import constants, integrate, optimize, special

from noonring import lattice
from noonring.lattice import (
    ATOMIC_MASS,
    BOHR_MAGNETON,
    BOHR_RADIUS,
    DY_MOMENT_CALIBRATED,
    HBAR,
    MU_0,
    QuadratureError,
    TrapParameters,
    _erfcx,
    _find_root,
    _j0,
    anisotropy_f,
    derive,
    dipolar_coupling,
    field_strengths,
    integrability_residual,
    model_parameters_from_lattice,
    onsite_coupling,
    onsite_dipolar,
    solve_integrability,
    v0_from_omega_r,
)

from conftest import BRACKET

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


def adaptive_coupling(trap, omega_r, distance):
    """U_1j/hbar by scipy's adaptive quadrature of the integral over q, to 1e-10 relative:
    the reference for the fixed-node rule of dipolar_coupling."""
    eta = trap.eta(omega_r)
    kappa, sqrt_eta = trap.kappa, math.sqrt(eta)
    z_origin = (4.0 / 3.0) * math.sqrt(kappa**2 * eta / math.pi)

    def integrand(q):
        kernel = z_origin - q * special.erfcx(q / (2.0 * kappa * sqrt_eta))
        return q * math.exp(-q * q / (4.0 * eta)) * special.j0(q * distance) * kernel

    value, _ = integrate.quad(integrand, 0.0, 14.0 * sqrt_eta, epsabs=0.0, epsrel=1e-10, limit=500)
    return trap.c_dd / (4.0 * math.pi) * value / HBAR


class TestSpecialFunctions:
    """The lattice's numpy special functions and constants against scipy's."""

    def test_constants_equal_scipy_constants(self):
        assert HBAR == constants.hbar
        assert MU_0 == constants.mu_0
        assert BOHR_RADIUS == constants.physical_constants["Bohr radius"][0]
        assert BOHR_MAGNETON == constants.physical_constants["Bohr magneton"][0]
        assert ATOMIC_MASS == constants.atomic_mass

    def test_j0_matches_scipy(self):
        """Both branches and the switch at z = 20, to 1e-14 absolute on [0, 1000]."""
        z = np.concatenate([np.linspace(0.0, 1000.0, 200_001), [20.0 - 1e-12, 20.0]])
        np.testing.assert_allclose(_j0(z), special.j0(z), rtol=0.0, atol=1e-14)
        assert _j0(np.zeros(1))[0] == 1.0

    def test_erfcx_matches_scipy(self):
        """Both branches and the switch at y = 25, to 1e-12 relative on [0, 1e4]."""
        y = np.concatenate([np.linspace(0.0, 40.0, 40_001), np.geomspace(40.0, 1e4, 2_001),
                            [25.0 - 1e-12, 25.0]])
        np.testing.assert_allclose(_erfcx(y), special.erfcx(y), rtol=1e-12, atol=0.0)

    def test_kernels_are_built_once_per_trap(self):
        trap = TrapParameters()
        assert trap._kernels is trap._kernels
        assert dataclasses.replace(trap, kappa_sq=2.0)._kernels is not trap._kernels


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
        with pytest.raises(ValueError, match="kappa must be positive, got nan"):
            anisotropy_f(math.nan)


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
        # Each check reads "not x > 0", so NaN fails it too.
        for field, message in [("wavelength", "wavelength and mass must be positive"),
                               ("mass", "wavelength and mass must be positive"),
                               ("w1", "central-beam waist must exceed the wavelength"),
                               ("w_b", "w_b and kappa_sq must be positive"),
                               ("kappa_sq", "w_b and kappa_sq must be positive")]:
            with pytest.raises(ValueError, match=message):
                TrapParameters(**{field: math.nan})


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
        with pytest.raises(ValueError, match="^omega_r must be positive$"):
            v0_from_omega_r(TrapParameters(), math.nan)

    def test_derive_computes_the_depth_once(self, monkeypatch):
        """derive's V0 serves its fields and omega_z check, and is handed on as `v0`."""
        omegas = []

        def recording(trap, omega_r):
            omegas.append(omega_r)
            return v0_from_omega_r(trap, omega_r)

        monkeypatch.setattr(lattice, "v0_from_omega_r", recording)
        derived = derive(TrapParameters(), WORKING_OMEGA)
        assert omegas == [WORKING_OMEGA]
        assert derived.v0 == v0_from_omega_r(TrapParameters(), WORKING_OMEGA)

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
        (limit,) = dipolar_coupling(trap, WORKING_OMEGA, [1e-12])
        assert limit == pytest.approx(onsite_dipolar(trap, WORKING_OMEGA), rel=1e-6)

    def test_couplings_decay_with_distance(self):
        trap = TrapParameters()
        near, far = (dipolar_coupling(trap, WORKING_OMEGA, [distance])[0]
                     for distance in (trap.nearest_distance(), trap.diagonal_distance()))
        assert near > far > 0.0

    def test_square_plaquette_symmetry(self):
        # The four nearest-neighbor couplings are the same integral at the
        # same distance; evaluate it independently four times.
        trap = TrapParameters()
        values = [
            dipolar_coupling(trap, WORKING_OMEGA, [trap.nearest_distance()])[0]
            for _ in range(4)
        ]
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    @pytest.mark.parametrize("kappa_sq", [0.5, 1.489, 4.0])
    def test_derive_matches_one_coupling_at_a_time(self, kappa_sq):
        """derive takes both pairs from one J0 call; the values are those of two calls,
        bit for bit, also where the pairs take rules of different sizes (kappa^2 = 0.5)."""
        trap = TrapParameters(kappa_sq=kappa_sq)
        for freq_khz in (*np.linspace(5.0, 150.0, 30), 400.0):
            omega_r = 2.0 * math.pi * freq_khz * 1e3
            derived = derive(trap, omega_r)
            assert (derived.u12, derived.u13) == tuple(
                dipolar_coupling(trap, omega_r, [distance])[0]
                for distance in (trap.nearest_distance(), trap.diagonal_distance()))

    def test_derive_takes_both_pairs_in_one_public_call(self, monkeypatch):
        calls = []

        def recording(trap, omega_r, distances):
            calls.append(distances)
            return dipolar_coupling(trap, omega_r, distances)

        monkeypatch.setattr(lattice, "dipolar_coupling", recording)
        trap = TrapParameters()
        derive(trap, WORKING_OMEGA)
        assert calls == [[trap.nearest_distance(), trap.diagonal_distance()]]

    def test_nan_inputs_rejected(self):
        """A NaN frequency or distance is invalid input (ValueError), not a numerical failure."""
        trap = TrapParameters()
        for function in (derive, onsite_coupling):
            with pytest.raises(ValueError, match="^omega_r must be positive$"):
                function(trap, math.nan)
        for omega_r, distances in [(math.nan, [1e-7]), (WORKING_OMEGA, [math.nan]),
                                   (WORKING_OMEGA, [1e-7, math.nan])]:   # min() of these is 1e-7
            with pytest.raises(ValueError, match="distance non-negative"):
                dipolar_coupling(trap, omega_r, distances)

    def test_quadrature_tolerance_enforced(self):
        with pytest.raises(QuadratureError):
            dipolar_coupling(TrapParameters(), WORKING_OMEGA,
                             [TrapParameters().nearest_distance()], rel_tol=1e-16)


class TestFixedNodeQuadrature:
    """dipolar_coupling's Gauss-Legendre rule against scipy's adaptive quadrature."""

    @pytest.mark.parametrize("kappa_sq", [0.5, 1.489, 4.0])
    def test_matches_adaptive_quadrature_or_raises(self, kappa_sq):
        """Up to 60 kHz, the [lattice] default range, no point may raise."""
        trap = TrapParameters(kappa_sq=kappa_sq)
        distances = (1e-12, trap.nearest_distance(), trap.diagonal_distance(),
                     2.0 * trap.nearest_distance())
        for freq_khz in np.linspace(5.0, 150.0, 30):
            omega_r = 2.0 * math.pi * freq_khz * 1e3
            for distance in distances:
                reference = adaptive_coupling(trap, omega_r, distance)
                try:
                    (value,) = dipolar_coupling(trap, omega_r, [distance])
                except QuadratureError:
                    assert freq_khz > 60.0
                    continue
                assert value == pytest.approx(reference, rel=1e-9, abs=0.0), (freq_khz, distance)

    def test_no_default_input_raises(self):
        """The [lattice] frequency range and the robustness bracket, 0.5 to 1.5 times the
        integrable root, at the default trap (derive evaluates both pairs)."""
        trap = TrapParameters()
        root = solve_integrability(trap, BRACKET)
        for omega_r in (*(2.0 * math.pi * 1e3 * np.linspace(18.0, 60.0, 43)), 0.5 * root, 1.5 * root):
            derive(trap, omega_r)

    def test_many_oscillations_take_the_larger_rule(self):
        """At 400 kHz and twice the nearest distance J0 makes ~130 oscillations, more than
        96 coarse nodes resolve: the rule sizes up rather than raise."""
        trap = TrapParameters()
        omega_r, distance = 2.0 * math.pi * 400e3, 2.0 * trap.nearest_distance()
        assert dipolar_coupling(trap, omega_r, [distance])[0] == pytest.approx(
            adaptive_coupling(trap, omega_r, distance), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kappa_sq, freq_khz, distance", [
        (1.489, 37.078, 1e-12),
        (4.0, 92.0, 1e-12),   # the coarse and fine sums agree to the last bit here (x86-64)
    ])
    def test_error_estimate_is_never_zero(self, kappa_sq, freq_khz, distance):
        """The fine rule's roundoff bounds the estimate from below, so a zero tolerance
        raises even where the two rules give the same sum."""
        with pytest.raises(QuadratureError):
            dipolar_coupling(TrapParameters(kappa_sq=kappa_sq), 2.0 * math.pi * freq_khz * 1e3,
                             [distance], rel_tol=0.0)


class TestRootFinder:
    @pytest.mark.parametrize("a0", [-21.0, -20.85, -21.2])
    def test_integrable_root_matches_brentq(self, a0):
        trap = dataclasses.replace(TrapParameters(), scattering_length_a0=a0)
        reference = optimize.brentq(lambda w: integrability_residual(trap, w),   # its tightest
                                    *BRACKET, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        assert solve_integrability(trap, BRACKET) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_integrable_root_takes_few_evaluations(self, monkeypatch):
        """brentq took 7 or 8 at 1e-8; regula falsi without the weighting of a kept
        end takes 14 to 18."""
        calls = []
        residual = lattice.integrability_residual

        def counting_residual(trap, omega_r):
            calls.append(omega_r)
            return residual(trap, omega_r)

        monkeypatch.setattr(lattice, "integrability_residual", counting_residual)
        for a0 in (-21.0, -20.85, -21.2):
            calls.clear()
            trap = dataclasses.replace(TrapParameters(), scattering_length_a0=a0)
            solve_integrability(trap, BRACKET)
            assert len(calls) <= 2 + 10   # the two bracket ends, then the root-find

    def test_ends_are_taken_as_given(self):
        calls = []

        def cube(x):
            calls.append(x)
            return x**3 - 2.0

        assert _find_root(cube, 0.0, 3.0, -2.0, 25.0, rtol=1e-12) == pytest.approx(
            2.0 ** (1.0 / 3.0), rel=1e-12)
        assert 0.0 not in calls and 3.0 not in calls
        calls.clear()
        assert _find_root(cube, 1.0, 3.0, 0.0, 25.0, rtol=1e-12) == 1.0
        assert _find_root(cube, 0.0, 1.0, -2.0, 0.0, rtol=1e-12) == 1.0
        assert calls == []

    def test_a_one_sided_secant_falls_back_to_bisection(self):
        """Regula falsi keeps the left end of a function this convex step after step."""
        calls = []

        def steep(x):
            calls.append(x)
            return x**40 - 0.5

        root = _find_root(steep, 0.0, 1.5, -0.5, 1.5**40 - 0.5, rtol=1e-12)
        assert root == pytest.approx(0.5 ** (1.0 / 40.0), rel=1e-12)
        assert len(calls) < 60   # without the bisections the weighting stalls for millions

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            _find_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, rtol=1e-12)


class TestIntegrabilityRoot:
    def test_root_consistency(self):
        root = solve_integrability(TrapParameters(), BRACKET)
        at_root = derive(TrapParameters(), root)
        assert abs(at_root.u0 - at_root.u13) / at_root.u0 < 1e-6
        assert at_root.u0 == pytest.approx(at_root.u13, rel=1e-6)
        assert integrability_residual(TrapParameters(), root) == (
            pytest.approx(0.0, abs=1e-6 * at_root.u0))

    def test_no_root_in_bad_bracket(self):
        with pytest.raises(ValueError, match=r"^no integrable point in bracket \[.*\] rad/s: "
                                             r"U0 - U13 = .* and .* at the endpoints$"):
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
        root = solve_integrability(trap, BRACKET)
        derived = derive(trap, root, dx=0.2e-6, dy=-0.2e-6)
        params = model_parameters_from_lattice(derived, j=set1["j"])
        assert params.u13 == params.u0
        assert params.coupling_u() == pytest.approx((derived.u12 - derived.u0) / 4.0)
        # The physical chain reproduces the benchmark couplings closely
        # enough to feed the protocols directly.
        assert (derived.u12 - derived.u0) / 4.0 == pytest.approx(set1["u"], rel=0.01)
        assert derived.mu == pytest.approx(set1["mu"], rel=0.01)

    def test_scattering_length_shifts_the_root(self):
        base = solve_integrability(TrapParameters(), BRACKET)
        shifted = solve_integrability(
            dataclasses.replace(TrapParameters(), scattering_length_a0=-20.85), BRACKET)
        assert shifted < base
