import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import eval_genlaguerre

from vcselnet import (
    DEFAULT_MODES,
    FUNDAMENTAL_MODE,
    BeamSpec,
    LensSpec,
    MAX_RADIAL_INDEX,
    TransformedBeam,
    beam_intensity,
    beam_radius,
    laguerre,
    lens_transform,
    mode_norm_const,
    rayleigh_range,
    transformed_source,
)
from vcselnet.beam_optics import MAX_AZIMUTHAL_INDEX, mode_constants, mode_sum
from vcselnet.errors import DomainError

from conftest import one_mode, oracle_beam_intensity

# Frozen oracle values for the 5 um / 850 nm fundamental beam. Derived from
# closed forms evaluated independently of the package (see the matching
# expressions in each test).
Z_R = 9.239978392911157e-05
W_2M = 0.10822536141798857
A_1_2_W1 = 0.32573500793528  # sqrt(2 * 1! / (pi * 3!))

TABLE_F = 0.127e-3
TABLE_D1 = 0.133e-3
# ABCD complex-beam-parameter oracle outputs for the table lens at w0 = 5 um.
TABLE_D2 = 0.00013828728244078846
TABLE_WL = 6.857867270754453e-06
WL_AT_D1_EQ_F = 6.8723104427080406e-06


def abcd_oracle(w0: float, wavelength: float, f: float, d1: float) -> tuple[float, float]:
    """Independent lens oracle: propagate q = d1 + i z_r through a thin lens."""
    zr = math.pi * w0**2 / wavelength
    q1 = complex(d1, zr)
    q2 = q1 / (1.0 - q1 / f)
    return -q2.real, math.sqrt(wavelength * q2.imag / math.pi)


class TestLaguerre:
    def test_matches_scipy_across_orders(self):
        x = np.linspace(0.0, 40.0, 81)
        for p in range(MAX_RADIAL_INDEX + 1):
            for l in range(7):
                ours = laguerre(p, l, x)
                ref = eval_genlaguerre(p, l, x)
                scale = np.maximum(np.abs(ref), 1.0)
                assert np.all(np.abs(ours - ref) / scale < 1e-7), (p, l)

    def test_frozen_point(self):
        # L_1^1(x) = 2 - x
        assert laguerre(1, 1, 3.0) == -1.0

    def test_value_at_zero_is_binomial(self):
        for p in range(MAX_RADIAL_INDEX + 1):
            for l in range(5):
                assert laguerre(p, l, 0.0) == pytest.approx(
                    math.comb(p + l, p), rel=1e-12
                )

    def test_matches_exact_rationals(self):
        # Exact L_p^l(x) from the explicit sum in rational arithmetic, on the
        # dyadic grid x = k/8, which doubles represent exactly. Rounding the
        # exact value to a double costs at most 1.1e-16 of the 1e-10 budget.
        xs = [Fraction(k, 8) for k in range(321)]
        for p in range(MAX_RADIAL_INDEX + 1):
            for l in range(8):
                coeffs = [
                    Fraction((-1) ** m * math.comb(p + l, p - m), math.factorial(m))
                    for m in range(p + 1)
                ]
                exact = []
                for x in xs:
                    acc = Fraction(0)
                    for c in reversed(coeffs):
                        acc = acc * x + c
                    exact.append(float(acc))
                exact = np.array(exact)
                ours = laguerre(p, l, np.array([float(x) for x in xs]))
                bad = np.abs(ours - exact) > 1e-10 * np.abs(exact)
                assert not bad.any(), (p, l, float(xs[bad.argmax()]))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=MAX_RADIAL_INDEX - 1),
        l=st.integers(min_value=0, max_value=5),
        x=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    @example(p=11, l=2, x=11.796875)
    def test_three_term_recurrence(self, p, l, x):
        # (p+1) L_{p+1}^l = (2p + l + 1 - x) L_p^l - (p + l) L_{p-1}^l
        lhs = (p + 1) * laguerre(p + 1, l, x)
        rhs = (2 * p + l + 1 - x) * laguerre(p, l, x) - (p + l) * laguerre(p - 1, l, x)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-9

    def test_array_input_matches_scalars(self):
        x = np.array([0.0, 0.7, 3.2, 11.0])
        arr = laguerre(2, 3, x)
        assert isinstance(arr, np.ndarray)
        assert arr.shape == x.shape
        for xi, yi in zip(x, arr):
            assert laguerre(2, 3, float(xi)) == yi

    def test_scalar_returns_float(self):
        assert isinstance(laguerre(3, 2, 1.5), float)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(DomainError):
            laguerre(MAX_RADIAL_INDEX + 1, 0, 1.0)
        with pytest.raises(DomainError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(DomainError):
            laguerre(0, -2, 1.0)


class TestModeNormConst:
    def test_frozen_value(self):
        assert mode_norm_const(1, 2, 1.0) == pytest.approx(A_1_2_W1, rel=1e-12)

    def test_scales_inversely_with_waist(self):
        assert mode_norm_const(0, 0, 5e-6) == pytest.approx(
            mode_norm_const(0, 0, 1.0) / 5e-6, rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mode_norm_const(0, 0, 0.0)
        with pytest.raises(DomainError):
            mode_norm_const(MAX_RADIAL_INDEX + 1, 0, 1.0)


class TestModeNormalization:
    @pytest.mark.parametrize("p,l", [(0, 0), (1, 3), (2, 5)])
    @pytest.mark.parametrize("z", [0.0, 2.0])
    def test_plane_integral_is_unity(self, p, l, z, fundamental_beam):
        w = beam_radius(z, fundamental_beam)
        mode = one_mode(fundamental_beam, p, l)
        val, err = integrate.quad(
            lambda r: beam_intensity(r, z, mode) * 2.0 * math.pi * r,
            0.0,
            12.0 * w,
            limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_multimode_integral_is_unity(self, multimode_beam):
        w = beam_radius(2.0, multimode_beam)
        val, err = integrate.quad(
            lambda r: beam_intensity(r, 2.0, multimode_beam) * 2.0 * math.pi * r,
            0.0,
            12.0 * w,
            limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-9)


class TestPropagation:
    def test_rayleigh_range_frozen(self, fundamental_beam):
        assert rayleigh_range(fundamental_beam) == pytest.approx(Z_R, rel=1e-12)

    def test_radius_at_waist(self, fundamental_beam):
        assert beam_radius(0.0, fundamental_beam) == fundamental_beam.w0

    def test_radius_at_rayleigh_range(self, fundamental_beam):
        assert beam_radius(Z_R, fundamental_beam) == pytest.approx(
            fundamental_beam.w0 * math.sqrt(2.0), rel=1e-12
        )

    def test_radius_at_two_meters_frozen(self, fundamental_beam):
        assert beam_radius(2.0, fundamental_beam) == pytest.approx(W_2M, rel=1e-12)

    def test_radius_rejects_negative_distance(self, fundamental_beam):
        with pytest.raises(DomainError):
            beam_radius(-1e-3, fundamental_beam)


class TestIntensity:
    def test_fundamental_peak_value(self, fundamental_beam):
        # On-axis fundamental intensity is 2 / (pi w(z)^2).
        for z in (0.0, 0.5, 2.0):
            w = beam_radius(z, fundamental_beam)
            assert beam_intensity(0.0, z, fundamental_beam) == pytest.approx(
                2.0 / (math.pi * w**2), rel=1e-12
            )

    def test_higher_mode_matches_scipy_formula(self, fundamental_beam):
        # Independent evaluation of the same physics with scipy's polynomial.
        p, l, z = 1, 2, 0.7
        w0 = fundamental_beam.w0
        w = beam_radius(z, fundamental_beam)
        a2 = 2.0 * math.factorial(p) / (math.pi * math.factorial(p + l)) / w0**2
        for r in (0.0, 0.3 * w, w, 2.5 * w):
            x = 2.0 * r**2 / w**2
            expected = (
                a2 * (w0**2 / w**2) * x**l * eval_genlaguerre(p, l, x) ** 2 * math.exp(-x)
            )
            assert beam_intensity(r, z, one_mode(fundamental_beam, p, l)) == pytest.approx(
                expected, rel=1e-9, abs=1e-300
            )

    def test_azimuthal_modes_vanish_on_axis(self, fundamental_beam):
        for l in (1, 2, 3):
            assert beam_intensity(0.0, 1.0, one_mode(fundamental_beam, 0, l)) == 0.0

    def test_rejects_negative_radius(self, fundamental_beam):
        with pytest.raises(DomainError):
            beam_intensity(-1e-6, 1.0, fundamental_beam)

    def test_rejects_nan_radius_and_distance(self, fundamental_beam):
        with pytest.raises(DomainError, match="radial coordinate"):
            beam_intensity(math.nan, 1.0, fundamental_beam)
        with pytest.raises(DomainError, match="radial coordinate"):
            beam_intensity(np.array([0.0, math.nan]), 1.0, fundamental_beam)
        with pytest.raises(DomainError, match="propagation distance must be >= 0, got nan"):
            beam_intensity(0.01, math.nan, fundamental_beam)
        with pytest.raises(DomainError, match="propagation distance must be >= 0, got nan"):
            beam_radius(math.nan, fundamental_beam)

    def test_array_radius(self, fundamental_beam):
        r = np.array([0.0, 1e-3, 5e-3])
        vals = beam_intensity(r, 2.0, fundamental_beam)
        assert vals.shape == r.shape
        assert np.all(np.diff(vals) < 0)

    def test_beam_intensity_is_weighted_sum(self, multimode_beam):
        r, z = 2.3e-3, 1.7
        manual = sum(
            frac * beam_intensity(r, z, one_mode(multimode_beam, p, l))
            for p, l, frac in multimode_beam.modes
        )
        assert beam_intensity(r, z, multimode_beam) == pytest.approx(manual, rel=1e-12)

    def test_zero_fraction_modes_are_skipped(self):
        padded = BeamSpec(
            w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.0), (1, 1, 0.0))
        )
        pure = BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.0),))
        for r in (0.0, 1e-3):
            assert beam_intensity(r, 1.0, padded) == beam_intensity(r, 1.0, pure)

    def test_underflowed_decay_gives_zero_not_nan(self):
        # At x = 8e10, x**7 * L_12^7(x)**2 overflows to inf while exp(-x)
        # underflows to 0; the intensity is 0, not inf * 0 = NaN.
        beam = BeamSpec(w0=1e-6, wavelength=850e-9, modes=((12, 7, 1.0),))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(oracle_beam_intensity(0.2, 0.0, beam))
            assert beam_intensity(0.2, 0.0, beam) == 0.0
            got = beam_intensity(np.array([0.0, 1e-6, 0.2]), 0.0, beam)
        assert got[2] == 0.0
        assert np.all(np.isfinite(got))


@st.composite
def mode_mixes(draw):
    """Mode sets with p <= 12, l <= 7 and power fractions that may be zero."""
    indices = draw(st.lists(st.tuples(st.integers(0, MAX_RADIAL_INDEX), st.integers(0, 7)),
                            min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(indices), max_size=len(indices))
                   .filter(any))
    return tuple((p, l, w / sum(weights)) for (p, l), w in zip(indices, weights))


# Radii in units of w(z): on axis, inside the beam, and far enough out that
# exp(-x) underflows to 0 (x > 745 from 19.3 w(z) on).
RADII = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0), st.floats(19.0, 1e5)),
                 min_size=1, max_size=40)


class TestFusedIntensity:
    @settings(max_examples=200, deadline=None)
    @given(
        modes=mode_mixes(),
        w0=st.floats(1e-6, 8e-6),
        z=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        radii=RADII,
    )
    @example(modes=((12, 7, 1.0),), w0=1e-6, z=0.0, radii=[0.0, 1.0, 2e5])
    def test_matches_per_mode_oracle_bit_for_bit(self, modes, w0, z, radii):
        beam = BeamSpec(w0=w0, wavelength=850e-9, modes=modes)
        r = np.array(radii) * beam_radius(z, beam)
        with np.errstate(over="ignore", invalid="ignore"):
            got = beam_intensity(r, z, beam)
            want = oracle_beam_intensity(r, z, beam)
        # The oracle is NaN only where x**l * L**2 overflows and exp(-x) is 0.
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.all(got[~finite] == 0.0)

    def test_inputs_are_never_written(self, multimode_beam):
        read_only = np.linspace(0.0, 0.3, 24)
        read_only.flags.writeable = False
        strided = np.linspace(0.0, 0.3, 48).reshape(6, 8)[:, ::2]
        integers = np.arange(4)
        for r in (read_only, strided, integers):
            before = r.copy()
            got = beam_intensity(r, 2.0, multimode_beam)
            assert r.dtype == before.dtype
            assert r.tobytes() == before.tobytes()
            assert not np.shares_memory(got, r)
            assert got.shape == r.shape
            assert got.tobytes() == oracle_beam_intensity(r, 2.0, multimode_beam).tobytes()
            assert beam_intensity(r, 2.0, multimode_beam).tobytes() == got.tobytes()

    def test_scalar_radius_is_a_one_element_array(self):
        # A scalar r takes the array path, so it matches the channel's array
        # evaluation bit for bit. numpy's scalar power can round x**l and
        # L**2 differently from its array power, so the per-mode scalar oracle
        # may differ by a few ulp.
        beam = BeamSpec(w0=5e-6, wavelength=850e-9, modes=((12, 7, 0.5), (1, 3, 0.5)))
        for r in (0.0, 1e-3, 0.01, 0.1, 0.3):
            got = beam_intensity(r, 2.0, beam)
            assert type(got) is float
            assert got == beam_intensity(np.array([r]), 2.0, beam)[0]
            assert got == pytest.approx(oracle_beam_intensity(r, 2.0, beam), rel=1e-15, abs=0.0)


class TestPerRowWidths:
    """mode_sum with one row of constants per row of x, as the channel's
    merged pass calls it: every row equals beam_intensity on that row alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        modes=mode_mixes(),
        sources=st.lists(st.tuples(st.floats(1e-6, 8e-6), st.floats(0.0, 5.0),
                                   st.sampled_from([850e-9, 940e-9])),
                         min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        radii=st.lists(st.floats(0.0, 6.0), min_size=4, max_size=4),
    )
    def test_rows_match_scalar_calls_bit_for_bit(self, modes, sources, picks, radii):
        beams = [BeamSpec(w0=w0, wavelength=wl, modes=modes) for w0, _, wl in sources]
        rows = [k % len(sources) for k in picks]  # sources repeat across rows
        zs = [sources[k][1] for k in rows]
        row_beams = [beams[k] for k in rows]
        r = np.array([np.array(radii) * beam_radius(z, b) for z, b in zip(zs, row_beams)])
        table = np.array([mode_constants(z, b) for z, b in zip(zs, row_beams)])
        w_z_sq, *cs = table.T[:, :, None]  # one (rows x 1) column per constant
        with np.errstate(over="ignore", invalid="ignore"):
            got = mode_sum(2.0 * np.square(r) / w_z_sq, modes, cs)
            # (rows x 2 x 2): constants that broadcast over every trailing axis.
            cube = mode_sum(2.0 * np.square(r.reshape(len(rows), 2, 2)) / w_z_sq[:, :, None],
                            modes, [c[:, :, None] for c in cs])
            for i, (z, b) in enumerate(zip(zs, row_beams)):
                alone = beam_intensity(r[i], z, b)
                assert got[i].tobytes() == alone.tobytes()
                assert cube[i].reshape(-1).tobytes() == alone.tobytes()


class TestBeamSpecValidation:
    def test_accepts_default_modes(self):
        beam = BeamSpec(w0=5e-6, wavelength=850e-9)
        assert len(beam.modes) == 8
        assert sum(f for _, _, f in beam.modes) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w0=0.0, wavelength=850e-9),
            dict(w0=-1e-6, wavelength=850e-9),
            dict(w0=5e-6, wavelength=0.0),
            dict(w0=5e-6, wavelength=850e-9, modes=()),
            dict(w0=5e-6, wavelength=850e-9, modes=((0, 0, 0.5),)),
            dict(w0=5e-6, wavelength=850e-9, modes=((0, 0, 0.5), (0, 0, 0.5))),
            dict(w0=5e-6, wavelength=850e-9, modes=((-1, 0, 1.0),)),
            dict(w0=5e-6, wavelength=850e-9, modes=((0, -1, 1.0),)),
            dict(w0=5e-6, wavelength=850e-9, modes=((13, 0, 1.0),)),
            dict(w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.5), (0, 1, -0.5))),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            BeamSpec(**kwargs)

    @pytest.mark.parametrize("field", ["w0", "wavelength"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"w0": 5e-6, "wavelength": 850e-9, field: value}
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            BeamSpec(**kwargs)

    def test_rejects_azimuthal_index_beyond_finite_range(self):
        assert MAX_AZIMUTHAL_INDEX == 107
        BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 107, 1.0),))
        with pytest.raises(DomainError, match="azimuthal index 108"):
            BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 108, 1.0),))

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(0, MAX_RADIAL_INDEX),
        l=st.integers(0, MAX_AZIMUTHAL_INDEX),
        x=st.floats(0.0, 746.0),
        w0=st.floats(1e-6, 8e-6),
        z=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    )
    @example(p=0, l=107, x=745.0, w0=5e-6, z=2.0)
    @example(p=12, l=107, x=745.0, w0=1e-6, z=0.0)
    @example(p=0, l=107, x=746.0, w0=8e-6, z=5.0)
    def test_intensity_is_finite_for_every_accepted_mode(self, p, l, x, w0, z):
        # x = 2 r^2 / w(z)^2 up to 746, past where exp(-x) underflows to 0.
        beam = BeamSpec(w0=w0, wavelength=850e-9, modes=((p, l, 1.0),))
        r = math.sqrt(x / 2.0) * beam_radius(z, beam)
        value = beam_intensity(r, z, beam)
        assert math.isfinite(value)
        assert value >= 0.0


class TestLensTransform:
    def test_matches_abcd_oracle_on_grid(self, fundamental_beam):
        f = TABLE_F
        for w0 in np.linspace(1e-6, 8e-6, 10):
            beam = BeamSpec(w0=float(w0), wavelength=850e-9, modes=((0, 0, 1.0),))
            for d1 in np.linspace(0.5 * f, 2.0 * f, 9):
                tb = lens_transform(beam, LensSpec(f=f, d1=float(d1)))
                d2_o, wl_o = abcd_oracle(float(w0), 850e-9, f, float(d1))
                assert tb.d2 == pytest.approx(d2_o, rel=1e-12, abs=1e-12 * f)
                assert tb.w_l == pytest.approx(wl_o, rel=1e-12)

    def test_frozen_table_values(self, fundamental_beam, table_lens):
        tb = lens_transform(fundamental_beam, table_lens)
        assert tb.d2 == pytest.approx(TABLE_D2, rel=1e-12)
        assert tb.w_l == pytest.approx(TABLE_WL, rel=1e-12)
        assert tb.k == pytest.approx(TABLE_WL / 5e-6, rel=1e-12)

    def test_waist_at_focus_for_d1_equal_f(self, fundamental_beam):
        tb = lens_transform(fundamental_beam, LensSpec(f=TABLE_F, d1=TABLE_F))
        assert tb.d2 == TABLE_F  # exact: delta = 0 collapses the relay ratio to 1
        assert tb.w_l == pytest.approx(WL_AT_D1_EQ_F, rel=1e-12)

    def test_magnification_regimes(self, table_lens):
        grows = BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.0),))
        shrinks = BeamSpec(w0=8e-6, wavelength=850e-9, modes=((0, 0, 1.0),))
        assert lens_transform(grows, table_lens).k > 1.0
        assert lens_transform(shrinks, table_lens).k < 1.0

    def test_magnification_never_exceeds_focal_over_rayleigh(self):
        # k = f / sqrt((d1 - f)^2 + z_r^2) <= f / z_r, with equality at d1 = f,
        # so no stand-off lets the lens enlarge a source wider than
        # sqrt(f lambda / pi).
        f = TABLE_F
        for w0 in np.linspace(1e-6, 8e-6, 8):
            w0 = float(w0)
            beam = BeamSpec(w0=w0, wavelength=850e-9, modes=((0, 0, 1.0),))
            bound = f / (math.pi * w0**2 / 850e-9)
            for d1 in np.linspace(0.0, 3.0 * f, 31):
                k = lens_transform(beam, LensSpec(f=f, d1=float(d1))).k
                k_oracle = abcd_oracle(w0, 850e-9, f, float(d1))[1] / w0
                assert k == pytest.approx(k_oracle, rel=1e-12)
                assert k <= bound * (1.0 + 1e-12)
            at_focus = lens_transform(beam, LensSpec(f=f, d1=f)).k
            assert at_focus == pytest.approx(bound, rel=1e-12)
            assert abcd_oracle(w0, 850e-9, f, f)[1] / w0 == pytest.approx(bound, rel=1e-12)

    def test_unit_magnification_at_crossover_waist(self, table_lens):
        # k = 1 where z_r = sqrt(f^2 - (d1 - f)^2); k falls with w0, so the
        # table lens magnifies below that waist and demagnifies above it.
        f, d1 = table_lens.f, table_lens.d1
        w_c = math.sqrt(850e-9 * math.sqrt(f**2 - (d1 - f) ** 2) / math.pi)
        assert w_c == pytest.approx(5.8586e-6, rel=1e-4)
        assert abcd_oracle(w_c, 850e-9, f, d1)[1] / w_c == pytest.approx(1.0, rel=1e-12)
        for w0 in (*np.linspace(1e-6, 8e-6, 8), w_c * (1 - 1e-6), w_c * (1 + 1e-6)):
            beam = BeamSpec(w0=float(w0), wavelength=850e-9, modes=((0, 0, 1.0),))
            assert (lens_transform(beam, table_lens).k > 1.0) == (w0 < w_c)

    def test_divergence_scales_inversely_with_magnification(
        self, fundamental_beam, table_lens
    ):
        # Far from the waist w(z) -> z lambda / (pi w0), so the relayed beam's
        # spot (and far-field angle) is the source's divided by k = w_l / w0.
        k = lens_transform(fundamental_beam, table_lens).k
        relayed, _ = transformed_source(fundamental_beam, table_lens)
        z = 100.0
        assert beam_radius(z, relayed) / beam_radius(z, fundamental_beam) == (
            pytest.approx(1.0 / k, rel=1e-9)
        )

    def test_transformed_source_without_lens(self, fundamental_beam):
        eff, offset = transformed_source(fundamental_beam, None)
        assert eff is fundamental_beam
        assert offset == 0.0

    def test_transformed_source_with_lens(self, fundamental_beam, table_lens):
        eff, offset = transformed_source(fundamental_beam, table_lens)
        tb = lens_transform(fundamental_beam, table_lens)
        assert eff.w0 == tb.w_l
        assert eff.wavelength == fundamental_beam.wavelength
        assert eff.modes == fundamental_beam.modes
        assert offset == tb.d2

    @settings(max_examples=200, deadline=None)
    @given(w0=st.floats(5e-7, 1e-3), wavelength=st.floats(4e-7, 2e-6),
           f=st.floats(1e-5, 1e-2), d1=st.floats(0.0, 1e-2),
           modes=st.sampled_from([FUNDAMENTAL_MODE, DEFAULT_MODES, ((0, 2, 0.25), (1, 0, 0.75))]))
    def test_the_relayed_beam_is_the_replace_copy(self, w0, wavelength, f, d1, modes):
        """The relayed beam, copied without BeamSpec's re-validation, equals
        and hashes as dataclasses.replace(beam, w0=w_l), field by field."""
        beam, lens = BeamSpec(w0, wavelength, modes), LensSpec(f, d1)
        relayed, _ = transformed_source(beam, lens)
        want = dataclasses.replace(beam, w0=lens_transform(beam, lens).w_l)
        assert type(relayed) is BeamSpec
        assert vars(relayed) == vars(want)
        assert relayed == want and hash(relayed) == hash(want)


class TestLensSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f=0.0, d1=1e-4),
            dict(f=-1e-4, d1=1e-4),
            dict(f=1e-4, d1=-1e-6),
            dict(f=1e-4, d1=-math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            LensSpec(**kwargs)

    @pytest.mark.parametrize("field", ["f", "d1"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_distances(self, field, value):
        kwargs = dict(f=1e-4, d1=1e-4)
        kwargs[field] = value
        with pytest.raises(DomainError, match="finite"):
            LensSpec(**kwargs)

    def test_transformed_beam_guards(self):
        with pytest.raises(DomainError):
            TransformedBeam(d2=1e-4, w_l=0.0, k=1.0)
        with pytest.raises(DomainError):
            TransformedBeam(d2=math.inf, w_l=1e-6, k=1.0)
        with pytest.raises(DomainError):
            TransformedBeam(d2=1e-4, w_l=1e-6, k=0.0)
