import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from vcselnet import (
    BeamSpec,
    SafetyResult,
    SafetySpec,
    d86_distance,
    lens_transform,
    max_safe_power,
    most_hazardous_position,
    pupil_fraction,
)
from vcselnet.errors import ConfigError, DomainError

from conftest import DEFAULT_MPE

# Frozen closed-form values for the 5 um / 850 nm fundamental beam with a
# 3.5 mm pupil: d86 = (pi w0 / lambda) sqrt(-2 r_p^2 / ln(0.14)) and
# eta(z) = 1 - exp(-2 r_p^2 / w(z)^2).
D86 = 0.06523486560119837
ETA_AT_FLOOR = 0.5668606821619783
ETA_AT_D86 = 0.859999447771481
PMAX_OVER_MPE = 6.789059678596331e-05


class TestD86:
    def test_frozen_value(self, fundamental_beam, safety):
        assert d86_distance(fundamental_beam, safety) == pytest.approx(D86, rel=1e-12)

    def test_agrees_with_root_of_encircled_power(self, fundamental_beam, safety):
        # Independent oracle: solve eta(z) = 0.86 numerically. The closed form
        # uses the far-field radius, so agreement is to the far-field error at
        # ~0.065 m (measured ~1e-6 relative), not machine precision.
        root = optimize.brentq(
            lambda z: pupil_fraction(fundamental_beam, z, safety) - 0.86,
            1e-3,
            1.0,
            xtol=1e-15,
            rtol=8.9e-16,
        )
        assert d86_distance(fundamental_beam, safety) == pytest.approx(root, rel=3e-6)

    def test_scales_linearly_with_waist(self, fundamental_beam, safety):
        wide = dataclasses.replace(fundamental_beam, w0=8e-6)
        assert d86_distance(wide, safety) == pytest.approx(D86 * 1.6, rel=1e-12)


class TestMostHazardousPosition:
    def test_floor_applies_for_small_waist(self, fundamental_beam, safety):
        assert most_hazardous_position(fundamental_beam, safety) == 0.1

    def test_d86_wins_beyond_floor(self, fundamental_beam, safety):
        wide = dataclasses.replace(fundamental_beam, w0=8e-6)
        assert most_hazardous_position(wide, safety) == pytest.approx(
            D86 * 1.6, rel=1e-12
        )

    def test_respects_custom_floor(self, fundamental_beam):
        safety = SafetySpec(mpe=DEFAULT_MPE, mhp_floor=0.5)
        assert most_hazardous_position(fundamental_beam, safety) == 0.5


class TestPupilFraction:
    def test_frozen_values(self, fundamental_beam, safety):
        assert pupil_fraction(fundamental_beam, 0.1, safety) == pytest.approx(
            ETA_AT_FLOOR, rel=1e-12
        )
        assert pupil_fraction(fundamental_beam, D86, safety) == pytest.approx(
            ETA_AT_D86, rel=1e-12
        )

    def test_decreases_with_distance(self, fundamental_beam, safety):
        etas = [
            pupil_fraction(fundamental_beam, z, safety) for z in (0.05, 0.1, 0.5, 2.0)
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_rejects_nonpositive_distance(self, fundamental_beam, safety):
        with pytest.raises(DomainError):
            pupil_fraction(fundamental_beam, -0.1, safety)


class TestMaxSafePower:
    def test_requires_mpe(self, fundamental_beam):
        with pytest.raises(ConfigError, match="mpe_w_per_m2"):
            max_safe_power(fundamental_beam, SafetySpec())

    def test_frozen_cap(self, fundamental_beam, safety):
        res = max_safe_power(fundamental_beam, safety)
        assert res.p_max == pytest.approx(DEFAULT_MPE * PMAX_OVER_MPE, rel=1e-12)
        assert res.mhp == 0.1
        assert res.d86 == pytest.approx(D86, rel=1e-12)
        assert res.eta == pytest.approx(ETA_AT_FLOOR, rel=1e-12)

    def test_cap_balances_pupil_power(self, fundamental_beam, safety):
        # By construction p_max * eta = MPE * pi * r_p^2: the pupil at the MHP
        # receives exactly the permitted irradiance times the pupil area.
        res = max_safe_power(fundamental_beam, safety)
        assert res.p_max * res.eta == pytest.approx(
            DEFAULT_MPE * math.pi * safety.pupil_radius**2, rel=1e-12
        )

    def test_lens_assesses_transformed_beam(self, fundamental_beam, safety, table_lens):
        with_lens = max_safe_power(fundamental_beam, safety, table_lens)
        tb = lens_transform(fundamental_beam, table_lens)
        equivalent = max_safe_power(
            dataclasses.replace(fundamental_beam, w0=tb.w_l), safety
        )
        assert with_lens == equivalent

    def test_large_waist_cap_is_waist_independent(self, safety):
        # Once d86 exceeds the floor the MHP tracks d86, where eta is 0.86 by
        # construction, so the cap saturates at MPE * pi * r_p^2 / 0.86. The
        # closed-form d86 carries a far-field correction of order
        # (z_r / d86)^2 — about 1e-5 relative at a 20 um waist — so the
        # saturation holds to leading order, not exactly.
        saturated = DEFAULT_MPE * math.pi * safety.pupil_radius**2 / 0.86
        for w0 in (8e-6, 12e-6, 20e-6):
            beam = BeamSpec(w0=w0, wavelength=850e-9, modes=((0, 0, 1.0),))
            res = max_safe_power(beam, safety)
            assert res.mhp > 0.1
            assert res.p_max == pytest.approx(saturated, rel=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_cap_is_linear_in_mpe(self, scale):
        beam = BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.0),))
        base = max_safe_power(beam, SafetySpec(mpe=1.0)).p_max
        scaled = max_safe_power(beam, SafetySpec(mpe=scale)).p_max
        assert scaled == pytest.approx(scale * base, rel=1e-12)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mpe=0.0),
            dict(mpe=-5.0),
            dict(pupil_radius=0.0),
            dict(mhp_floor=0.0),
            dict(mhp_floor=-0.1),
        ],
    )
    def test_safety_spec_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SafetySpec(**kwargs)

    def test_none_mpe_is_allowed(self):
        assert SafetySpec().mpe is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d86=0.05, mhp=0.0, eta=0.5, p_max=1e-3),
            dict(d86=0.05, mhp=0.1, eta=0.0, p_max=1e-3),
            dict(d86=0.05, mhp=0.1, eta=1.5, p_max=1e-3),
            dict(d86=0.05, mhp=0.1, eta=0.5, p_max=0.0),
        ],
    )
    def test_safety_result_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            SafetyResult(**kwargs)
