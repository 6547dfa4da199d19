"""Optical-lattice proposal calculator for the four-site dipolar ring.

Geometry: a horizontal square lattice (spacing l = lambda/2) from two
retro-reflected 532 nm beams, a vertical accordion lattice of spacing
d_sw = lambda/(2 sin(alpha/2)), and an attractive central Gaussian beam
(waist w1) that isolates a 2x2 plaquette.  A weak movable beam (waist
w_b) displaced by (dx, dy) provides the site-imbalance fields mu, nu.

Trap frequencies at the plaquette:

    omega_r = sqrt((2/m)(V0 k^2 + 2 V1 / w1^2)),
    omega_z = sqrt((2/m)(pi^2 V2 / d_sw^2 + V1 / R1^2)),   R1 = pi w1^2 / lambda,

with k = 2 pi / lambda.  The interaction integrals use the Gaussian
ground state of width eta = m omega_r / (2 hbar) (inverse length^2) and
aspect ratio kappa^2 = omega_z / omega_r.  On-site coupling:

    U0 = kappa (eta/pi)^(3/2) (g - (C_dd/3) f(kappa)),

with g = 4 pi hbar^2 a / m, C_dd = mu_0 mu1^2, and f the standard
dipolar anisotropy function.  (The bare product kappa eta^3/pi^3 is not
an inverse volume; the square-root reading above is the dimensionally
consistent one and is the one that reproduces the published
integrability frequencies.)  Inter-site dipolar coupling at in-plane
distance d (a semi-infinite Hankel-type integral over the in-plane
wavevector q):

    U_1j = (C_dd / 4 pi) Int_0^inf dq q e^{-q^2/(4 eta)} J0(q d) Z(q),
    Z(q) = (4/3) sqrt(kappa^2 eta / pi) - q erfcx(q / (2 kappa sqrt(eta))),

whose d -> 0 limit recovers the on-site dipolar term.  In x = q/sqrt(eta)
the integral is

    eta^(3/2) Int_0^14 dx x e^{-x^2/4} (4 kappa/(3 sqrt(pi)) - x erfcx(x/(2 kappa))) J0(x sqrt(eta) d),

where only the J0 factor depends on omega_r and d.  dipolar_coupling
evaluates it with a fixed Gauss-Legendre rule, built once at import, and
takes its error from the same sum on a rule of twice the nodes; the rest
of the integrand depends on kappa alone, so each TrapParameters builds it
once per rule.  The integrable point U0 = U13 is found by regula falsi
with the Anderson-Bjorck modification (`_find_root`), which the robustness
module's detuned frequencies share; `solve_integrability` returns its
omega_r, and `derive` evaluates the couplings and fields at any omega_r.
The module needs numpy alone: the CODATA constants are literals, erfcx
comes from math.erfc (`_erfcx`) and J0 from its integral or its Hankel
expansion (`_j0`).  All couplings are returned as angular frequencies
(X/hbar in rad/s); lengths are in meters and energies in joules elsewhere.

The Dy-164 magnetic moment is calibrated so that the a = -21 a0
integrability root lands at omega_r = 2 pi x 37.078 kHz (see
DY_MOMENT_CALIBRATED).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelParameters

# CODATA 2022 (SI): hbar = h / (2 pi) with the exact h, the rest as recommended.
HBAR = 6.62607015e-34 / (2.0 * math.pi)   # J s
MU_0 = 1.25663706127e-6                   # N / A^2
BOHR_RADIUS = 5.29177210544e-11           # m
BOHR_MAGNETON = 9.2740100657e-24          # J / T
ATOMIC_MASS = 1.66053906892e-27           # kg

DY164_MASS = 164.0 * ATOMIC_MASS
# The moment at which U0 = U13 at omega_r = 2 pi x 37.078 kHz, so that
# solve_integrability at a = -21 a0 returns that frequency for the default trap
# (tests/test_lattice.py recomputes it).
DY_MOMENT_CALIBRATED = 9.978541109384


class QuadratureError(ArithmeticError):
    """Dipolar integral failed to reach the requested accuracy."""


def anisotropy_f(kappa: float) -> float:
    """Standard dipolar anisotropy function f(kappa).

    f(0+) = 1, f(1) = 0, f(inf) = -2, monotone decreasing.  Near
    kappa = 1 the closed forms are 0/0; a series in u = kappa^2 - 1 is
    used there.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa:g}")
    ksq = kappa * kappa
    u = ksq - 1.0
    if abs(u) < 1e-5:
        # f = sum_{k>=1} 6 (-1)^k u^k / ((2k+1)(2k+3))
        total, term = 0.0, 1.0
        for k in range(1, 12):
            term *= -u
            total += 6.0 * term / ((2 * k + 1) * (2 * k + 3))
        return total
    if kappa < 1.0:
        root = math.sqrt(1.0 - ksq)
        return (1.0 + 2.0 * ksq) / (1.0 - ksq) - 3.0 * ksq * math.atanh(root) / (1.0 - ksq) ** 1.5
    root = math.sqrt(ksq - 1.0)
    return (1.0 + 2.0 * ksq) / (1.0 - ksq) + 3.0 * ksq * math.atan(root) / (ksq - 1.0) ** 1.5


@dataclass(frozen=True)
class TrapParameters:
    """Inputs of the physical proposal (SI units; moments in mu_B, a in a0)."""

    wavelength: float = 0.532e-6
    w1: float = 1.0e-6
    w_b: float = 5.0e-6
    alpha: float = math.pi / 3.0
    v1_ratio: float = 1.0       # V1 / V0
    v2_ratio: float = 9.0       # V2 / V0
    vb_ratio: float = 5.0e-3    # V_b / V0
    scattering_length_a0: float = -21.0
    mass: float = DY164_MASS
    magnetic_moment_mub: float = DY_MOMENT_CALIBRATED
    # omega_z / omega_r.  The default is the self-consistent value of the
    # trap formulas at the working radial frequency (omega_z_formula at its
    # V0, over omega_r, with the default depth ratios), not an independent
    # quantity.
    kappa_sq: float = 1.489

    def __post_init__(self):
        # "not x > 0" rather than "x <= 0", here as in every range check of this module:
        # NaN fails these checks too.
        if not (self.wavelength > 0.0 and self.mass > 0.0):
            raise ValueError("wavelength and mass must be positive")
        if not self.w1 > self.wavelength:
            raise ValueError("central-beam waist must exceed the wavelength")
        if not (self.w_b > 0.0 and self.kappa_sq > 0.0):
            raise ValueError("w_b and kappa_sq must be positive")

    @property
    def lattice_spacing(self) -> float:
        return self.wavelength / 2.0

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def d_sw(self) -> float:
        """Vertical accordion spacing lambda / (2 sin(alpha/2))."""
        return self.wavelength / (2.0 * math.sin(self.alpha / 2.0))

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.w1**2 / self.wavelength

    @property
    def kappa(self) -> float:
        return math.sqrt(self.kappa_sq)

    @cached_property
    def _kernels(self) -> dict[int, np.ndarray]:
        """Per rule pair of `_RULES`, its weights times x e^{-x^2/4} (4 kappa/(3 sqrt pi) -
        x erfcx(x/(2 kappa))): the integrand of `dipolar_coupling` but its J0 factor.

        It depends on kappa alone, so it is built once per instance.
        """
        origin = 4.0 * self.kappa / (3.0 * math.sqrt(math.pi))
        return {n: weights * (x * np.exp(-0.25 * x * x) * (origin - x * _erfcx(x / (2.0 * self.kappa))))
                for n, (x, weights) in _RULES.items()}

    @property
    def delta(self) -> float:
        """Site-compression factor 1 + 2 V1/(V0 k^2 w1^2) from the central beam."""
        return 1.0 + 2.0 * self.v1_ratio / (self.wavenumber**2 * self.w1**2)

    @property
    def scattering_length(self) -> float:
        return self.scattering_length_a0 * BOHR_RADIUS

    @property
    def contact_g(self) -> float:
        """g = 4 pi hbar^2 a / m (J m^3)."""
        return 4.0 * math.pi * HBAR**2 * self.scattering_length / self.mass

    @property
    def c_dd(self) -> float:
        """C_dd = mu_0 mu1^2 (J m^3)."""
        return MU_0 * (self.magnetic_moment_mub * BOHR_MAGNETON) ** 2

    def eta(self, omega_r: float) -> float:
        """Inverse squared radial oscillator length, m omega_r / (2 hbar)."""
        omega_r = float(omega_r)
        return _finite("eta", omega_r, lambda: self.mass * omega_r / (2.0 * HBAR))

    def nearest_distance(self) -> float:
        return self.lattice_spacing / self.delta

    def diagonal_distance(self) -> float:
        return math.sqrt(2.0) * self.lattice_spacing / self.delta


def _finite(quantity: str, omega_r: float, formula) -> float:
    """formula(), or ArithmeticError naming `quantity` and omega_r if it is not finite.

    Called with Python floats, whose products overflow to inf silently and
    whose powers raise OverflowError, so no numpy RuntimeWarning precedes it.
    """
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ArithmeticError(f"{quantity} = {value} at omega_r = {omega_r:.6g} rad/s")
    return value


def recoil_energy(trap: TrapParameters) -> float:
    """E_R / hbar = hbar k^2 / (2 m) in rad/s."""
    return HBAR * trap.wavenumber**2 / (2.0 * trap.mass)


def v0_from_omega_r(trap: TrapParameters, omega_r: float) -> float:
    """Invert omega_r = sqrt((2/m)(V0 k^2 + 2 V1/w1^2)) for V0 (J)."""
    omega_r = float(omega_r)
    if not omega_r > 0.0:
        raise ValueError("omega_r must be positive")
    return _finite("V0", omega_r, lambda: trap.mass * omega_r**2 / (
        2.0 * (trap.wavenumber**2 + 2.0 * trap.v1_ratio / trap.w1**2)
    ))


def omega_z_formula(trap: TrapParameters, v0: float) -> float:
    """Vertical frequency from the accordion depth V2 = v2_ratio V0, at the depth v0 (J)."""
    return math.sqrt(
        (2.0 / trap.mass) * (
            math.pi**2 * trap.v2_ratio * v0 / trap.d_sw**2
            + trap.v1_ratio * v0 / trap.rayleigh_range**2
        )
    )


def onsite_coupling(trap: TrapParameters, omega_r: float) -> float:
    """U0/hbar = kappa (eta/pi)^(3/2) (g - (C_dd/3) f(kappa)) / hbar."""
    omega_r = float(omega_r)
    if not omega_r > 0.0:
        raise ValueError("omega_r must be positive")
    eta = trap.eta(omega_r)
    return _finite("U0", omega_r, lambda: trap.kappa * (eta / math.pi) ** 1.5 * (
        trap.contact_g - trap.c_dd * anisotropy_f(trap.kappa) / 3.0) / HBAR)


def onsite_dipolar(trap: TrapParameters, omega_r: float) -> float:
    """The dipolar part of U0/hbar alone (rad/s); equals the d->0 limit of U_1j."""
    eta = trap.eta(omega_r)
    prefactor = trap.kappa * (eta / math.pi) ** 1.5
    return -prefactor * trap.c_dd * anisotropy_f(trap.kappa) / 3.0 / HBAR


def _gauss_legendre(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point (n even) Gauss-Legendre rule on [0, length].

    Newton's method on P_n from Tricomi's estimate of its positive roots, P_n and
    P_{n-1} by the three-term recurrence, until a step falls below 1e-15; the
    weights are 2 / ((1 - t^2) P_n'(t)^2).
    """
    k = np.arange(1, n // 2 + 1)
    t = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    recurrence = [((2 * j - 1) / j, (j - 1) / j) for j in range(2, n + 1)]
    while True:
        previous, p = np.ones_like(t), t
        for a, b in recurrence:
            previous, p = p, a * t * p - b * previous
        slope = n * (previous - t * p) / (1.0 - t * t)
        step = p / slope
        t = t - step
        if np.max(np.abs(step)) < 1e-15:
            break
    weights = 2.0 / ((1.0 - t * t) * slope * slope)
    half = 0.5 * length
    return half * np.concatenate([1.0 - t, 1.0 + t]), half * np.concatenate([weights, weights])


def _two_product(a, b):
    """a b as product + error exactly (Dekker): the rounded product and its rounding error.

    Exact while no factor exceeds ~1e300; floats or arrays.
    """
    def split(value):   # value = high + low, high to 26 bits
        scaled = 134217729.0 * value   # 2^27 + 1
        high = scaled - (scaled - value)
        return high, value - high
    product = a * b
    (a_high, a_low), (b_high, b_low) = split(a), split(b)
    return product, ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low


def _erfcx(y: np.ndarray) -> np.ndarray:
    """The scaled complementary error function exp(y^2) erfc(y), elementwise, for y >= 0.

    math.exp and math.erfc below y = 25, with exp(y^2) = exp(s) (1 + e) for
    y^2 = s + e (`_two_product`), so the rounding of y^2, which exp would scale by
    y^2, is not carried; above, where erfc nears underflow, the asymptotic series
    1/(y sqrt(pi)) sum_k (-1)^k (2k - 1)!! / (2 y^2)^k to k = 8, whose next term is
    below 5e-21 there.
    """
    def scalar(y: float) -> float:
        if y < 25.0:
            square, error = _two_product(y, y)
            return math.exp(square) * (1.0 + error) * math.erfc(y)
        inverse, term, total = 0.5 / (y * y), 1.0, 1.0
        for k in range(1, 9):
            term *= -(2 * k - 1) * inverse
            total += term
        return total / (y * math.sqrt(math.pi))
    return np.array([scalar(value) for value in np.asarray(y, dtype=float).tolist()])


# J0(z) = (2/pi) Int_0^{pi/2} cos(z sin phi) dphi: the sines at the 16 nodes of the
# midpoint rule, which errs by ~2 |J_64(z)| (< 1e-25 below z = 20).
_J0_SINES = np.sin((np.arange(16) + 0.5) * (math.pi / 32.0))
# a_k = ((2k - 1)!!)^2 / (k! 8^k) for k < 22, the coefficients of J0's Hankel expansion,
# signed as its series P (even k) and Q (odd k) alternate; row m holds those of 1/z^2m in
# P and in Q z.  11 terms of each: the first omitted one is < 2e-17 from z = 20.
_HANKEL = (np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 22)])
           * np.repeat((-1.0) ** np.arange(11), 2)).reshape(11, 2)


def _j0(z: np.ndarray) -> np.ndarray:
    """The Bessel function J0, elementwise, for z >= 0.

    Below z = 20 the midpoint rule on its integral (`_J0_SINES`), each
    cos(z sin phi) as cos(s) - e sin(s) for z sin phi = s + e (`_two_product`),
    so the rounding of the argument is not carried; above, the Hankel expansion
    J0 = (P (cos z + sin z) + Q (sin z - cos z)) / sqrt(pi z), with
    P = sum_k (-1)^k a_2k / z^2k and Q = sum_k (-1)^k a_(2k+1) / z^(2k+1).
    """
    z = np.asarray(z, dtype=float)
    values = np.empty_like(z)
    small = z < 20.0
    argument, error = _two_product(z[small][:, None], _J0_SINES)
    values[small] = (np.cos(argument) - error * np.sin(argument)).mean(axis=-1)
    large = z[~small]
    powers = np.multiply.accumulate(np.broadcast_to(1.0 / (large * large), (10, large.size)))
    p, q = _HANKEL[1:].T @ powers + _HANKEL[0][:, None]   # P, and Q z
    q /= large
    cos, sin = np.cos(large), np.sin(large)
    values[~small] = (p * (cos + sin) + q * (sin - cos)) / np.sqrt(math.pi * large)
    return values


# x = q / sqrt(eta) beyond which the Gaussian factor e^{-x^2/4} is < 1e-21.
_CUTOFF = 14.0


# A coupling sums a coarse rule of n = 96 or 192 nodes and the fine rule of 2n: per n, the
# nodes and weights on [0, _CUTOFF] of both, one after the other, for one J0 call.
_LEGENDRE = {n: _gauss_legendre(n, _CUTOFF) for n in (96, 192, 384)}
_RULES = {n: tuple(map(np.concatenate, zip(_LEGENDRE[n], _LEGENDRE[2 * n]))) for n in (96, 192)}
del _LEGENDRE


def dipolar_coupling(trap: TrapParameters, omega_r: float, distances: list[float],
                     rel_tol: float = 1e-4) -> list[float]:
    """U_1j/hbar at each in-plane distance d of `distances` by fixed-node Gauss-Legendre
    quadrature (rad/s), with one `_j0` call over all their nodes.

    The integral runs over x = q/sqrt(eta) in [0, 14], where the erfcx form of
    the kernel is overflow-free; the Gaussian factor is < 1e-21 at the cutoff,
    where the kernel has already flattened to a constant.  J0(x sqrt(eta) d) has
    about 14 sqrt(eta) d / pi oscillations there, and the kernel varies on a
    width ~2 kappa, so the coarse rule takes 96 nodes while
    5 sqrt(eta) d + 16 / sqrt(kappa) <= 80, and 192 beyond.  The fine rule
    takes twice the coarse rule's nodes and gives the value.  The error estimate
    is the larger of the two rules' difference and 50 eps times the sum of the
    fine rule's |terms| (its roundoff); QuadratureError if it exceeds
    rel_tol |value|.
    """
    if not (omega_r > 0.0 and all(distance >= 0.0 for distance in distances)):
        raise ValueError("omega_r must be positive and distance non-negative")
    eta = trap.eta(omega_r)
    frequencies = [math.sqrt(eta) * distance for distance in distances]   # of J0 in x
    rules = [96 if 5.0 * frequency + 16.0 / math.sqrt(trap.kappa) <= 80.0 else 192
             for frequency in frequencies]
    j0 = _j0(np.concatenate([f * _RULES[coarse][0] for f, coarse in zip(frequencies, rules)]))
    couplings, start = [], 0
    for distance, coarse in zip(distances, rules):
        terms, start = trap._kernels[coarse] * j0[start:start + 3 * coarse], start + 3 * coarse
        coarse_sum, value = float(terms[:coarse].sum()), float(terms[coarse:].sum())
        abserr = max(abs(value - coarse_sum),
                     50.0 * np.finfo(float).eps * np.abs(terms[coarse:]).sum())
        if value != 0.0 and abserr > rel_tol * abs(value):
            raise QuadratureError(
                f"dipolar integral reached relative error {abserr / abs(value):.2e} "
                f"> {rel_tol:g} at d = {distance:g} m"
            )
        couplings.append(_finite(f"U(d = {distance:g} m)", omega_r,
                                 lambda: trap.c_dd / (4.0 * math.pi) * eta**1.5 * value / HBAR))
    return couplings


def integrability_residual(trap: TrapParameters, omega_r: float) -> float:
    """U0(omega_r) - U13(omega_r) in rad/s; zero at the integrable point."""
    return (onsite_coupling(trap, omega_r)
            - dipolar_coupling(trap, omega_r, [trap.diagonal_distance()])[0])


def _find_root(f, lo: float, hi: float, f_lo: float, f_hi: float, rtol: float) -> float:
    """The x between lo and hi with f(x) = 0, given f's values f_lo, f_hi at the ends.

    Regula falsi with the Anderson-Bjorck modification: when a secant point
    replaces the same end twice in a row, the value kept at the other end is
    scaled by 1 - f(x)/f(replaced end), or halved as in the Illinois method if
    that is not positive.  A secant point outside the bracket, or three steps
    that fail to halve it, give a bisection instead.  A point within
    min(16 eps, rtol/4) |x| of an end moves to that distance from it: once f's
    roundoff stalls the secant at one end, the next point can land across the
    root and close the bracket.  Once the bracket is within rtol |x|, returns the
    point where |f| was smallest, which a closing bisection need not be; f is
    never called at lo or hi.  ValueError if f_lo and f_hi have the same sign.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"f has the same sign at both ends of [{lo:g}, {hi:g}]: {f_lo:g}, {f_hi:g}")
    kept, widths, best = None, [math.inf] * 3, (math.inf, None)
    while True:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not min(lo, hi) < x < max(lo, hi) or abs(hi - lo) > 0.5 * widths[-3]:
            x = 0.5 * (lo + hi)
        step = min(16.0 * np.finfo(float).eps, 0.25 * rtol) * abs(x)
        x = min(max(x, min(lo, hi) + step), max(lo, hi) - step)
        f_x = f(x)
        if f_x == 0.0:
            return x
        best = min(best, (abs(f_x), x))
        if (f_x > 0.0) == (f_hi > 0.0):
            scale = 1.0 - f_x / f_hi
            hi, f_hi = x, f_x
            if kept == "lo":
                f_lo *= scale if scale > 0.0 else 0.5
            kept = "lo"
        else:
            scale = 1.0 - f_x / f_lo
            lo, f_lo = x, f_x
            if kept == "hi":
                f_hi *= scale if scale > 0.0 else 0.5
            kept = "hi"
        widths.append(abs(hi - lo))
        if abs(hi - lo) <= rtol * abs(x):
            return best[1]


def solve_integrability(trap: TrapParameters, bracket: tuple[float, float]) -> float:
    """The radial frequency omega_r (rad/s) with U0 = U13 within `bracket` (rad/s), by
    bracketed root-finding (rel. tol 1e-12, the 12 significant digits a manifest prints);
    `derive` gives the couplings there."""
    lo, hi = bracket
    f_lo = integrability_residual(trap, lo)
    f_hi = integrability_residual(trap, hi)
    if f_lo * f_hi > 0.0:
        raise ValueError(
            f"no integrable point in bracket [{lo:g}, {hi:g}] rad/s: "
            f"U0 - U13 = {f_lo:g} and {f_hi:g} at the endpoints"
        )
    return _find_root(lambda w: integrability_residual(trap, w), lo, hi, f_lo, f_hi, rtol=1e-12)


def field_strengths(
    trap: TrapParameters, v0: float, dx: float, dy: float
) -> tuple[float, float]:
    """Displacement-beam fields (mu, nu) in rad/s.

    mu = 2 V_b l (dx - dy) / (w_b^2 delta hbar),
    nu = 2 V_b l (dx + dy) / (w_b^2 delta hbar);
    with |dx| = |dy| only one of them is nonzero at a time.
    """
    if abs(dx) >= trap.w_b or abs(dy) >= trap.w_b:
        raise ValueError("displacements must stay within the beam waist")
    v_b = trap.vb_ratio * v0
    scale = 2.0 * v_b * trap.lattice_spacing / (trap.w_b**2 * trap.delta * HBAR)
    return scale * (dx - dy), scale * (dx + dy)


@dataclass(frozen=True)
class LatticeDerived:
    """What the proposal derives at a given radial frequency and beam displacement.

    The trap's own scales are read from TrapParameters (`delta`, `eta(omega_r)`,
    omega_z = kappa_sq omega_r), the recoil from `recoil_energy`, the lattice depth
    v0 from `v0_from_omega_r`, and the band coupling U = (U12 - U0)/4 from the fields here.
    """

    omega_r: float          # rad/s
    omega_z_check: float    # rad/s, from the accordion-depth formula
    v0: float               # J, the lattice depth
    u0: float               # rad/s
    u12: float              # rad/s
    u13: float              # rad/s
    mu: float               # rad/s
    nu: float               # rad/s


def derive(
    trap: TrapParameters,
    omega_r: float,
    dx: float = 0.0,
    dy: float = 0.0,
) -> LatticeDerived:
    """Evaluate the full chain of derived quantities at omega_r."""
    v0 = v0_from_omega_r(trap, omega_r)
    u0 = onsite_coupling(trap, omega_r)
    u12, u13 = dipolar_coupling(trap, omega_r, [trap.nearest_distance(), trap.diagonal_distance()])
    mu, nu = field_strengths(trap, v0, dx, dy)
    return LatticeDerived(
        omega_r=omega_r,
        omega_z_check=omega_z_formula(trap, v0),
        v0=v0,
        u0=u0,
        u12=u12,
        u13=u13,
        mu=mu,
        nu=nu,
    )


def model_parameters_from_lattice(derived: LatticeDerived, j: float) -> ModelParameters:
    """Ready-to-use couplings; J is an input (no tunneling formula is used).

    When U0 and U13 agree to within 1e-6 relative (the root solver works to
    1e-12) the pair is snapped to its mean, so the couplings the `physical`
    manifest reports as model_parameters are exactly integrable (U13 = U0).
    Away from the root the raw (non-integrable) values are kept.
    """
    u0, u13 = derived.u0, derived.u13
    if abs(u0 - u13) <= 1e-6 * max(abs(u0), abs(u13)):
        u0 = u13 = 0.5 * (derived.u0 + derived.u13)
    return ModelParameters(u0=u0, u12=derived.u12, u13=u13, j=j)
