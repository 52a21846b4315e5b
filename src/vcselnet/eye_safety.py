"""Eye-safety power budgeting for a single emitter.

The exposure-limiting geometry is evaluated at the most hazardous position
(MHP): the closer of the 86%-encircled-power distance and a near-point floor.
The per-emitter power cap follows from the maximum permissible exposure (MPE)
and the fraction of beam power entering a standard pupil at the MHP. With a
micro-lens the transformed beam (waist w_l at d2 past the lens) is assessed,
distances measured from the transformed waist plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beam_optics import BeamSpec, LensSpec, beam_radius, transformed_source
from .errors import ConfigError, DomainError, require_positive

# Encircled-power level defining the hazard distance.
_ENCIRCLED_LEVEL = 0.86


@dataclass(frozen=True)
class SafetySpec:
    """Exposure-assessment inputs.

    mpe           maximum permissible exposure, W/m^2; site/standard specific,
                  deliberately has no default and must be configured before
                  any power cap can be computed
    pupil_radius  limiting-aperture (pupil) radius r_p, m
    mhp_floor     nearest credible viewing distance, m
    """

    mpe: float | None = None
    pupil_radius: float = 3.5e-3
    mhp_floor: float = 0.1

    def __post_init__(self):
        if self.mpe is not None:
            require_positive(ConfigError, self, "mpe")
        require_positive(ConfigError, self, "pupil_radius", "mhp_floor")


@dataclass(frozen=True)
class SafetyResult:
    """Assessment summary.

    d86    distance at which the pupil captures 86% of beam power, m
    mhp    most hazardous position, m
    alpha  angular subtense of the source at the MHP, rad (reported only;
           nothing downstream consumes it)
    eta    pupil capture fraction at the MHP
    p_max  per-emitter power cap, W
    """

    d86: float
    mhp: float
    alpha: float
    eta: float
    p_max: float

    def __post_init__(self):
        if self.d86 < 0 or self.mhp <= 0:
            raise DomainError("hazard distances must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise DomainError("pupil fraction must lie in (0, 1]")
        if not self.p_max > 0:
            raise DomainError("power cap must be positive")


def d86_distance(beam: BeamSpec, safety: SafetySpec) -> float:
    """Distance where the pupil encircles 86% of the beam power.

    In the far field w(z) = z lambda / (pi w0), and 1 - exp(-2 r_p^2/w^2)
    hits 0.86 at

        d86 = (pi w0 / lambda) sqrt(-2 r_p^2 / ln(1 - 0.86))
    """
    rp = safety.pupil_radius
    return (
        math.pi
        * beam.w0
        / beam.wavelength
        * math.sqrt(-2.0 * rp**2 / math.log(1.0 - _ENCIRCLED_LEVEL))
    )


def most_hazardous_position(beam: BeamSpec, safety: SafetySpec) -> float:
    """MHP = max(d86, floor): never assess closer than the near-point floor."""
    return max(d86_distance(beam, safety), safety.mhp_floor)


def subtense_angle(beam: BeamSpec, mhp: float) -> float:
    """Angular subtense of the waist seen from the MHP: 2 atan(w0 / mhp), rad."""
    if not mhp > 0:
        raise DomainError(f"viewing distance must be positive, got {mhp!r}")
    return 2.0 * math.atan(beam.w0 / mhp)


def pupil_fraction(beam: BeamSpec, mhp: float, safety: SafetySpec) -> float:
    """Fraction of beam power entering the pupil at distance mhp.

    eta = 1 - exp(-2 r_p^2 / w(mhp)^2), the encircled power of a Gaussian
    beam of radius w(mhp) over a centered disc of radius r_p; DomainError
    where it rounds to 0.
    """
    if not mhp > 0:
        raise DomainError(f"viewing distance must be positive, got {mhp!r}")
    w = beam_radius(mhp, beam)
    eta = 1.0 - math.exp(-2.0 * safety.pupil_radius**2 / w**2)
    if not eta > 0:
        raise DomainError(f"pupil fraction rounds to 0: pupil_radius {safety.pupil_radius!r} m "
                          f"against a beam radius of {w!r} m at {mhp!r} m")
    return eta


def max_safe_power(
    beam: BeamSpec, safety: SafetySpec, lens: LensSpec | None = None
) -> SafetyResult:
    """Per-emitter power cap P_max = MPE * pi * r_p^2 / eta at the MHP.

    With a lens, the transformed beam is assessed (waist w_l, distances from
    the post-lens waist plane). Raises ConfigError when MPE is unset: the
    exposure limit is a required input with no default.
    """
    if safety.mpe is None:
        raise ConfigError(
            "safety.mpe is required to compute a power cap; "
            "set mpe_w_per_m2 in the [safety] section"
        )
    eff_beam, _ = transformed_source(beam, lens)
    d86 = d86_distance(eff_beam, safety)
    mhp = most_hazardous_position(eff_beam, safety)
    alpha = subtense_angle(eff_beam, mhp)
    eta = pupil_fraction(eff_beam, mhp, safety)
    p_max = safety.mpe * math.pi * safety.pupil_radius**2 / eta
    return SafetyResult(d86=d86, mhp=mhp, alpha=alpha, eta=eta, p_max=p_max)
