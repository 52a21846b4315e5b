"""Laguerre-Gaussian beam propagation and the thin micro-lens transform.

Free-space propagation follows the standard Gaussian beam relations; transverse
mode patterns are Laguerre-Gaussian with radial index p and azimuthal index l.
All lengths are in meters, angles in radians, intensities in W/m^2 per watt of
mode power (so the full-plane integral of each mode pattern is 1). An intensity
is mode_sum at x = 2 r^2 / w_z^2 with mode_constants of one (beam, z); the
channel calls mode_sum itself, with one row of constants per link. A Rayleigh
range, beam radius or lens relay that a float cannot hold raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, replace_unchecked, require_positive

# Radial index guard: keeps every (p + l)! used by the default mode sets inside
# the exact-integer range of a double. The explicit alternating sum for
# L_p^l is badly conditioned at this range (terms near 1e7 at p = 12, x = 12
# cancel to a value near 1), so laguerre uses the three-term recurrence.
MAX_RADIAL_INDEX = 12

# Azimuthal index guard: mode_sum forms x**l before it multiplies by the
# normalization and exp(-x), and exp(-x) > 0 for every x below ~745.13. x**l
# stays finite up to x = 746 for l <= floor(ln(DBL_MAX) / ln(746)) = 107; at
# l = 108 it overflows to inf where the true intensity is finite and tiny.
MAX_AZIMUTHAL_INDEX = 107

# Default transverse mode mix: p in {0, 1} x l in {0, 1, 2, 3}, equal power.
DEFAULT_MODES: tuple[tuple[int, int, float], ...] = tuple(
    (p, l, 1.0 / 8.0) for p in (0, 1) for l in (0, 1, 2, 3)
)

FUNDAMENTAL_MODE: tuple[tuple[int, int, float], ...] = ((0, 0, 1.0),)


@dataclass(frozen=True)
class BeamSpec:
    """Source beam: waist radius, wavelength and transverse mode mix.

    w0          waist radius at the source, m; positive and finite
    wavelength  vacuum wavelength, m; positive and finite
    modes       tuple of (p, l, power_fraction); fractions must sum to 1
    """

    w0: float
    wavelength: float
    modes: tuple[tuple[int, int, float], ...] = DEFAULT_MODES

    def __post_init__(self):
        require_positive(DomainError, self, "w0", "wavelength")
        if not self.modes:
            raise DomainError("modes must contain at least one (p, l, fraction) entry")
        seen = set()
        total = 0.0
        for p, l, frac in self.modes:
            _check_mode_indices(p, l)
            if l > MAX_AZIMUTHAL_INDEX:
                raise DomainError(
                    f"azimuthal index {l} exceeds the supported maximum {MAX_AZIMUTHAL_INDEX}"
                )
            if (p, l) in seen:
                raise DomainError(f"duplicate mode ({p}, {l})")
            seen.add((p, l))
            if frac < 0:
                raise DomainError(f"mode ({p}, {l}) has negative power fraction {frac!r}")
            total += frac
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mode power fractions must sum to 1, got {total!r}")


@dataclass(frozen=True)
class LensSpec:
    """Thin micro-lens in front of the source.

    f    focal length, m; positive and finite
    d1   source-to-lens distance, m; >= 0 and finite
    """

    f: float
    d1: float

    def __post_init__(self):
        if not 0 < self.f < math.inf:
            raise DomainError(f"focal length must be positive and finite, got {self.f!r}")
        if not 0 <= self.d1 < math.inf:
            raise DomainError(
                f"source-to-lens distance must be >= 0 and finite, got {self.d1!r}"
            )


@dataclass(frozen=True)
class TransformedBeam:
    """Beam parameters after the lens.

    d2   distance from the lens to the new waist plane, m
    w_l  new waist radius, m
    k    waist magnification w_l / w0
    """

    d2: float
    w_l: float
    k: float

    def __post_init__(self):
        if not self.w_l > 0:
            raise DomainError("transformed waist must be positive")
        if not math.isfinite(self.d2):
            raise DomainError("transformed waist location must be finite")
        if not self.k > 0:
            raise DomainError("waist magnification must be positive")


def _check_mode_indices(p: int, l: int) -> None:
    """DomainError unless p and l are non-negative and p <= MAX_RADIAL_INDEX."""
    if p < 0 or l < 0:
        raise DomainError(f"mode indices must be non-negative, got ({p}, {l})")
    if p > MAX_RADIAL_INDEX:
        raise DomainError(f"radial index {p} exceeds the supported maximum {MAX_RADIAL_INDEX}")


def laguerre(p: int, l: int, x):
    """Generalized Laguerre polynomial L_p^l(x) by the three-term recurrence.

    L_0^l = 1, L_1^l = 1 + l - x,
    (k+1) L_{k+1}^l = (2k + 1 + l - x) L_k^l - (k + l) L_{k-1}^l

    Unlike the explicit alternating sum, the recurrence does not cancel large
    terms, so the relative error stays near rounding level. x may be a scalar
    or ndarray; p is guarded at MAX_RADIAL_INDEX.
    """
    _check_mode_indices(p, l)
    x_arr = np.asarray(x, dtype=float)
    if p == 0:
        acc = np.ones_like(x_arr)
    else:
        prev, acc = 1.0, (1.0 + l) - x_arr
        for k in range(1, p):
            prev, acc = acc, ((2 * k + 1 + l) - x_arr) * acc - prev * (k + l)
            acc /= k + 1
    if np.ndim(x) == 0:
        return float(acc)
    return acc


def mode_norm_const(p: int, l: int, w0: float) -> float:
    """Normalization constant A_p^l = (1/w0) sqrt(2 p! / (pi (p+l)!))."""
    _check_mode_indices(p, l)
    if not w0 > 0:
        raise DomainError(f"w0 must be positive, got {w0!r}")
    return math.sqrt(2.0 * math.factorial(p) / (math.pi * math.factorial(p + l))) / w0


def rayleigh_range(beam: BeamSpec) -> float:
    """Rayleigh range z_r = pi w0^2 / lambda, m; DomainError unless finite and > 0."""
    try:
        zr = math.pi * beam.w0**2 / beam.wavelength
    except OverflowError:
        zr = math.inf
    if not 0 < zr < math.inf:
        raise DomainError(f"w0 {beam.w0!r} m at wavelength {beam.wavelength!r} m gives a "
                          f"Rayleigh range of {zr!r} m; it must be positive and finite")
    return zr


def beam_radius(z: float, beam: BeamSpec) -> float:
    """1/e^2 beam radius w(z) = w0 sqrt(1 + (z/z_r)^2), m. Requires z >= 0."""
    if not z >= 0:
        raise DomainError(f"propagation distance must be >= 0, got {z!r}")
    zr = rayleigh_range(beam)
    try:
        return beam.w0 * math.sqrt(1.0 + (z / zr) ** 2)
    except OverflowError:
        raise DomainError(f"beam radius of w0 {beam.w0!r} m overflows at {z!r} m") from None


def mode_constants(z: float, beam: BeamSpec) -> list[float]:
    """[w_z^2, c...] for beam at distance z: its squared radius there, then
    c = (A_p^l)^2 w0^2 / w_z^2 for each mode with a nonzero power fraction,
    in mode order, as mode_sum takes them."""
    w_z = beam_radius(z, beam)
    return [w_z**2] + [mode_norm_const(p, l, beam.w0) ** 2 * beam.w0**2 / w_z**2
                       for p, l, frac in beam.modes if frac != 0.0]


def mode_sum(x: np.ndarray, modes, cs) -> np.ndarray:
    """Intensity at x = 2 r^2 / w_z^2, as a new array: each mode of modes
    with a nonzero power fraction adds frac * (((c * x**l) * L_p^l(x)**2) *
    exp(-x)), in mode order, with its c from cs (see mode_constants). A c may
    be a scalar or an array that broadcasts against x, such as one c per row.

    exp(-x) and each distinct x**l are shared by all modes. Where exp(-x)
    underflows to 0 the intensity is 0, even where x**l * L**2 overflows.
    """
    modes = [(p, l, frac) for p, l, frac in modes if frac != 0.0]
    decay = np.exp(-x)
    # x**0 = 1 and x**1 = x exactly, so only l >= 2 takes the power.
    powers = {l: np.power(x, l) for l in {l for _, l, _ in modes} if l >= 2}
    total = None
    for (p, l, frac), c in zip(modes, cs):
        term = np.full(x.shape, c) if l == 0 else (x if l == 1 else powers[l]) * c
        if p:  # L_0^l = 1: skipping its square is exact
            term *= np.square(laguerre(p, l, x))
        term *= decay
        term *= frac
        if total is None:
            total = term
        else:
            total += term
    total[decay == 0.0] = 0.0
    return total


def beam_intensity(r, z, beam):
    """Total intensity: mode intensities weighted by their power fractions,
    mode_sum at x = 2 r^2 / w_z^2 with the constants of (z, beam). r may be
    a scalar or ndarray of non-negative radii; r itself is never written, and
    an array result is always a new array.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not (r_arr >= 0).all():
        raise DomainError("radial coordinate must be >= 0")
    w_z_sq, *cs = mode_constants(z, beam)
    total = mode_sum(2.0 * np.square(r_arr) / w_z_sq, beam.modes, cs)
    if np.ndim(r) == 0:
        return float(total[0])
    return total


def lens_transform(beam: BeamSpec, lens: LensSpec) -> TransformedBeam:
    """Image the source waist through the thin lens.

    Standard Gaussian waist relay: with delta = d1 - f and z_r the source
    Rayleigh range,

        d2  = f (z_r^2 + d1 delta) / (delta^2 + z_r^2)
        w_l = w0 f / sqrt(delta^2 + z_r^2)

    equivalent to propagating the complex beam parameter through free space
    d1 and a thin lens of focal length f. DomainError where the arithmetic
    overflows or the (positive) denominator underflows to 0.
    """
    zr = rayleigh_range(beam)
    delta = lens.d1 - lens.f
    try:
        den = delta**2 + zr**2
        d2 = lens.f * (zr**2 + lens.d1 * delta) / den
        w_l = beam.w0 * lens.f / math.sqrt(den)
    except ArithmeticError:
        raise DomainError(f"lens f={lens.f!r} m, d1={lens.d1!r} m: the relay of w0 {beam.w0!r} m "
                          f"at wavelength {beam.wavelength!r} m over- or underflows") from None
    k = w_l / beam.w0
    return TransformedBeam(d2=d2, w_l=w_l, k=k)


def transformed_source(beam: BeamSpec, lens: LensSpec | None) -> tuple[BeamSpec, float]:
    """Effective (beam, waist offset) pair for downstream propagation.

    Without a lens the source itself is returned with zero offset. With a
    lens, the returned beam has the transformed waist w_l located d2 past
    the lens, so intensities at a plane z past the transmitter's exit plane
    (the VCSEL without a lens, the lens with one) are evaluated at z - d2
    from the new waist. DomainError naming the lens where the relay
    over- or underflows, or where the relayed waist's Rayleigh range does.
    """
    if lens is None:
        return beam, 0.0
    tb = lens_transform(beam, lens)
    # Only w0 changes: w_l > 0 (TransformedBeam), and the Rayleigh range
    # check below rejects a w_l that is not finite, so the copy skips
    # BeamSpec's re-validation.
    relayed = replace_unchecked(beam, w0=tb.w_l)
    try:
        rayleigh_range(relayed)
    except DomainError:
        raise DomainError(f"lens f={lens.f!r} m, d1={lens.d1!r} m relays w0 {beam.w0!r} m to a "
                          f"waist of {tb.w_l!r} m whose Rayleigh range at wavelength "
                          f"{beam.wavelength!r} m is not positive and finite") from None
    return relayed, tb.d2
