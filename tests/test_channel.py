import dataclasses
import math
import subprocess
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import eval_genlaguerre, gammaincc, genlaguerre, i0e
from scipy.stats import ncx2

from vcselnet import (
    DEFAULT_MODES,
    FUNDAMENTAL_MODE,
    AccessPoint,
    BeamSpec,
    LensSpec,
    UserTerminal,
    beam_radius,
    build_channel_matrix,
    captured_fraction,
    default_scene,
    lens_transform,
    max_safe_power,
    rayleigh_range,
    transformed_source,
)
from vcselnet import beam_optics, channel, eye_safety
from vcselnet.beam_optics import mode_constants, mode_sum
from vcselnet.channel import _DEDUP_MIN_LINKS, _distinct, link_geometry
from vcselnet.errors import DomainError
from vcselnet.scene import place_users
from vcselnet.sweep import SweepSpec, _configure, run_sweep

from conftest import COMPACT_CONFIG

# 2 cm^2 detector disc radius.
APERTURE = math.sqrt(2e-4 / math.pi)
# Every gain below this is exactly +0.0 (channel._GAIN_FLOOR).
GAIN_FLOOR = 1e-30
# Nodes per segment row in the quadrature's first round: orders 16 and 32
# side by side in one mode_sum call, one row for each radial segment a link
# has (the circle where rho < a, the arc where it has length); x arrives as
# (rows x nodes).
FIRST_ROUND_NODES = 16 + 32


def cut_radius(beam, z):
    """Where the channel's disc integral stops: the beam's tail is 1e-46 past it."""
    return beam_radius(z, beam) * math.sqrt(0.5 * channel._dark_x(beam.modes, channel._CUT_TAIL))


def source_table(beam, z, rows=1):
    """_radial_capture's constants table for rows links of one (beam, z)."""
    return np.array([mode_constants(z, beam)] * rows)


def independent_intensity(beam, r, z):
    """Beam intensity rebuilt from scratch with scipy's Laguerre polynomials."""
    zr = math.pi * beam.w0**2 / beam.wavelength
    w = beam.w0 * math.sqrt(1.0 + (z / zr) ** 2)
    total = 0.0
    for p, l, frac in beam.modes:
        if frac == 0.0:
            continue
        a2 = 2.0 * math.factorial(p) / (math.pi * math.factorial(p + l)) / beam.w0**2
        x = 2.0 * r**2 / w**2
        total += frac * (
            a2 * (beam.w0**2 / w**2) * x**l * eval_genlaguerre(p, l, x) ** 2 * math.exp(-x)
        )
    return total


def quad_captured_fraction(beam, lens, z, rho, aperture_radius):
    """Disc capture by scipy's adaptive quadrature over the distance r from
    the beam axis. The circle of radius r about the axis lies in the disc
    for r <= a - rho, and crosses it in an arc of angle 2 psi,
    psi = arccos((r^2 + rho^2 - a^2) / (2 r rho)), for |rho - a| < r < rho + a.
    Break points at multiples of the beam radius keep a beam much narrower
    than the disc from slipping between quad's samples, and at decades
    past |rho - a| resolve the arc angle when the beam axis sits near the
    disc's edge."""
    eff_beam, waist_offset = transformed_source(beam, lens)
    z = z - waist_offset
    a = aperture_radius
    zr = math.pi * eff_beam.w0**2 / eff_beam.wavelength
    w = eff_beam.w0 * math.sqrt(1.0 + (z / zr) ** 2)

    def arc(r):  # 2 psi by the half-angle form, which cancels nothing when rho << a
        d, far = rho - a, rho + a
        return 4.0 * math.atan2(math.sqrt(max(0.0, (far - r) * (r - d))),
                                math.sqrt(max(0.0, (r + d) * (r + far))))

    pieces = [(abs(rho - a), rho + a, arc)]
    if rho < a:
        pieces.append((0.0, a - rho, lambda r: 2.0 * math.pi))
    total = 0.0
    for lo, hi, angle in pieces:
        points = sorted(p for p in [k * w for k in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0)]
                        + [lo * 10.0**k for k in range(1, 12)] if lo < p < hi)
        value, _ = integrate.quad(lambda r: independent_intensity(eff_beam, r, z) * angle(r) * r,
                                  lo, hi, points=points or None, epsabs=1e-45, epsrel=1e-12,
                                  limit=500)
        total += value
    return total


def assert_capture(got, want, rel):
    """got, a floored gain, is want within rel, or +0.0 where want lies
    below the floor (either, within rel of it)."""
    if want < GAIN_FLOOR * (1.0 - rel):
        assert got == 0.0
    elif got != 0.0 or want > GAIN_FLOOR * (1.0 + rel):
        assert got == pytest.approx(want, rel=rel, abs=0.0)


def per_link_channel(scene):
    """The channel one link at a time: its distance, offset and arrival
    angle by math, and its gain by captured_fraction."""
    gains = np.zeros((len(scene.users), len(scene.aps)))
    distances = np.zeros_like(gains)
    offsets = np.zeros_like(gains)
    for u, user in enumerate(scene.users):
        aperture = math.sqrt(user.detector_area / math.pi)
        for a, ap in enumerate(scene.aps):
            z = ap.position[2] - scene.room.rx_plane_height
            rho = math.hypot(
                user.position[0] - ap.position[0], user.position[1] - ap.position[1]
            )
            distances[u, a] = z
            offsets[u, a] = rho
            if math.atan2(rho, z) > user.fov_half_angle:
                continue
            gains[u, a] = captured_fraction(ap.beam, ap.lens, z, rho, aperture)
    return gains, distances, offsets


def assert_bit_identical(h, oracle):
    for got, want in zip((h.gains, h.distances, h.offsets), oracle):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCapturedFraction:
    def test_centered_fundamental_matches_closed_form(self, fundamental_beam):
        # Encircled power of a Gaussian over a centered disc: 1 - exp(-2a^2/w^2).
        z = 2.0
        zr = math.pi * 25e-12 / 850e-9
        w = 5e-6 * math.sqrt(1.0 + (z / zr) ** 2)
        closed = 1.0 - math.exp(-2.0 * APERTURE**2 / w**2)
        got = captured_fraction(fundamental_beam, None, z, 0.0, APERTURE)
        assert got == pytest.approx(closed, rel=1e-10)

    def test_centered_multimode_matches_radial_quadrature(self, multimode_beam):
        z = 2.0
        oracle, err = integrate.quad(
            lambda r: independent_intensity(multimode_beam, r, z) * 2.0 * math.pi * r,
            0.0,
            APERTURE,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=200,
        )
        got = captured_fraction(multimode_beam, None, z, 0.0, APERTURE)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_offset_multimode_matches_2d_quadrature(self, multimode_beam):
        z, rho = 2.0, 1.0
        oracle, err = integrate.dblquad(
            lambda phi, s: independent_intensity(
                multimode_beam,
                math.sqrt(rho**2 + s**2 + 2.0 * rho * s * math.cos(phi)),
                z,
            )
            * s,
            0.0,
            APERTURE,
            0.0,
            2.0 * math.pi,
            epsabs=1e-13,
            epsrel=1e-10,
        )
        got = captured_fraction(multimode_beam, None, z, rho, APERTURE)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_huge_aperture_captures_everything(self, multimode_beam):
        z = 2.0
        zr = math.pi * 25e-12 / 850e-9
        w = 5e-6 * math.sqrt(1.0 + (z / zr) ** 2)
        got = captured_fraction(multimode_beam, None, z, 0.0, 10.0 * w)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_far_offset_captures_nothing(self, fundamental_beam):
        z = 2.0
        zr = math.pi * 25e-12 / 850e-9
        w = 5e-6 * math.sqrt(1.0 + (z / zr) ** 2)
        got = captured_fraction(fundamental_beam, None, z, 50.0 * w, APERTURE)
        assert got <= 1e-12

    def test_far_link_of_a_high_order_mode_captures_nothing(self):
        # The intensity over this disc underflows to 0; with inf * 0 = NaN
        # the quadrature never converged.
        beam = BeamSpec(w0=1e-6, wavelength=850e-9, modes=((12, 7, 1.0),))
        with np.errstate(over="ignore", invalid="ignore"):
            assert captured_fraction(beam, None, 1e-5, 0.5, 0.00798) == 0.0

    def test_monotone_in_aperture(self, multimode_beam):
        vals = [
            captured_fraction(multimode_beam, None, 2.0, 0.5, a)
            for a in (1e-3, 4e-3, APERTURE, 2e-2)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_lens_shifts_the_source_plane(self, fundamental_beam, table_lens):
        z = 2.0
        tb = lens_transform(fundamental_beam, table_lens)
        moved = dataclasses.replace(fundamental_beam, w0=tb.w_l)
        with_lens = captured_fraction(fundamental_beam, table_lens, z, 0.3, APERTURE)
        manual = captured_fraction(moved, None, z - tb.d2, 0.3, APERTURE)
        assert with_lens == pytest.approx(manual, rel=1e-12)

    def test_lens_on_links_are_measured_from_the_lens_by_abcd(self, table_lens):
        """z runs from the transmitter's exit plane, the lens when there is
        one: the channel's w^2 at the receive plane is that of the complex
        beam parameter q = d1 + i z_r taken through the thin lens and then
        over z, and a centred TEM00 disc captures 1 - exp(-2 a^2 / w^2) of it."""

        def abcd_w_sq(beam, lens, z):
            q = complex(lens.d1, rayleigh_range(beam))
            q = q / (1.0 - q / lens.f) + z
            return beam.wavelength * abs(q) ** 2 / (math.pi * q.imag)

        rng = np.random.default_rng(20261020)
        checked = 0
        for _ in range(400):
            beam = BeamSpec(w0=10.0 ** rng.uniform(-6.0, -4.3), wavelength=850e-9,
                            modes=FUNDAMENTAL_MODE)
            f = 10.0 ** rng.uniform(-4.3, -3.3)
            lens = LensSpec(f=f, d1=f * rng.uniform(0.5, 2.0))
            z = rng.uniform(0.1, 3.0)
            if z <= lens_transform(beam, lens).d2:
                continue
            w_sq = channel._source(beam, lens, z).consts[0]
            assert w_sq == pytest.approx(abcd_w_sq(beam, lens, z), rel=1e-12, abs=0.0)
            checked += 1
        assert checked > 300
        beam = BeamSpec(w0=5e-6, wavelength=850e-9, modes=FUNDAMENTAL_MODE)
        got = captured_fraction(beam, table_lens, 2.0, 0.0, APERTURE)
        closed = 1.0 - math.exp(-2.0 * APERTURE**2 / abcd_w_sq(beam, table_lens, 2.0))
        assert got == pytest.approx(closed, rel=0.0, abs=1e-9)

    def test_result_never_exceeds_unity(self, multimode_beam):
        z = 1e-3
        zr = math.pi * 25e-12 / 850e-9
        w = 5e-6 * math.sqrt(1.0 + (z / zr) ** 2)
        got = captured_fraction(multimode_beam, None, z, 0.0, 20.0 * w)
        assert got <= 1.0
        assert got == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(z=0.0, rho=0.0, aperture_radius=APERTURE),
            dict(z=-1.0, rho=0.0, aperture_radius=APERTURE),
            dict(z=2.0, rho=-0.1, aperture_radius=APERTURE),
            dict(z=2.0, rho=0.0, aperture_radius=0.0),
        ],
    )
    def test_domain_errors(self, fundamental_beam, kwargs):
        with pytest.raises(DomainError):
            captured_fraction(fundamental_beam, None, **kwargs)

    @pytest.mark.parametrize(
        "z, rho, aperture, named",
        [
            (2.0, math.nan, 8e-3, "lateral offset"),
            (2.0, math.inf, 8e-3, "lateral offset"),
            (2.0, 0.0, math.inf, "aperture radius"),
            (2.0, 0.0, math.nan, "aperture radius"),
            (math.nan, 0.0, 8e-3, "link distance"),
            (math.inf, 0.0, 8e-3, "link distance"),
        ],
    )
    def test_non_finite_arguments_are_refused_by_name(self, multimode_beam, table_lens, z, rho,
                                                      aperture, named, monkeypatch):
        # Refused before any quadrature: a NaN offset once ran to order 1024.
        monkeypatch.setattr(channel, "_disc_capture", None)
        for lens in (None, table_lens):
            with pytest.raises(DomainError, match=f"{named} must be .* finite, got"):
                captured_fraction(multimode_beam, lens, z, rho, aperture)

    def test_lens_requires_distance_past_transformed_waist(
        self, fundamental_beam, table_lens
    ):
        tb = lens_transform(fundamental_beam, table_lens)
        with pytest.raises(DomainError, match="transformed waist"):
            captured_fraction(
                fundamental_beam, table_lens, 0.5 * tb.d2, 0.0, APERTURE
            )

    def test_fixed_order_quadrature_has_converged(self, multimode_beam):
        rho = np.array([1.0])
        r_cut = np.array([cut_radius(multimode_beam, 2.0)])
        a, b = channel._radial_capture(multimode_beam.modes, source_table(multimode_beam, 2.0),
                                       rho, APERTURE, r_cut, (256, 512))
        assert a[0] == pytest.approx(b[0], rel=1e-10)

    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.3, 1.0])
    def test_matches_radial_quad_oracle(self, multimode_beam, table_lens, rho):
        for lens in (None, table_lens):
            got = captured_fraction(multimode_beam, lens, 2.0, rho, APERTURE)
            want = quad_captured_fraction(multimode_beam, lens, 2.0, rho, APERTURE)
            assert_capture(got, want, rel=1e-9)

    def test_non_convergence_names_the_link(self, multimode_beam, monkeypatch):
        # Beyond r = 2.5 m every node draws fresh noise, so no two orders
        # agree to 1e-8, not even the first round's two in one call, and the
        # order runs past 1024.
        noise = np.random.default_rng(0)
        # A 1 um source has spread to w ~ 0.54 m at 2 m, so even the 3 m link
        # is integrated: its nearest disc point sits at x = 2 (rho - a)^2 / w^2
        # ~ 61, inside the default beam's tail threshold (channel._dark_x).
        wide = dataclasses.replace(multimode_beam, w0=1e-6)
        x_far = 2.0 * 2.5**2 / beam_radius(2.0, wide) ** 2  # x at r = 2.5 m

        def erratic(x, modes, cs):
            return np.where(x > x_far, 1.0 + noise.random(x.shape), 1.0)

        monkeypatch.setattr(channel, "mode_sum", erratic)
        # A unit intensity integrates to the disc area, 2 cm^2.
        assert captured_fraction(wide, None, 2.0, 1.0, APERTURE) == pytest.approx(2e-4)
        expected = f"z=2.0, rho=3.0, aperture={APERTURE!r}"
        with pytest.raises(DomainError, match="did not converge by order 1024") as info:
            captured_fraction(wide, None, 2.0, 3.0, APERTURE)
        assert expected in str(info.value)

        # In a channel only the diagonal 2*sqrt(2) m links reach past 2.5 m.
        scene = default_scene()
        aps = tuple(dataclasses.replace(ap, beam=wide, lens=None) for ap in scene.aps)
        with pytest.raises(DomainError, match="did not converge by order 1024") as info:
            build_channel_matrix(dataclasses.replace(scene, aps=aps))
        assert f"z=2.0, rho={2.0 * math.sqrt(2.0)!r}, aperture={APERTURE!r}" in str(info.value)


class TestDarkLinks:
    """Offsets near the default beam's tail threshold X* = 86.12.

    x = 2 (rho - a)^2 / w_z^2 at the disc edge nearest the beam axis; from
    x > X* on the gain is +0.0 without any evaluation. Just inside X* the
    link is integrated and its gain, far below 1e-30, is floored to +0.0.
    """

    XS = (75.0, 80.0, 85.5, 86.11, 86.13, 90.0, 750.01, 1e4)
    X_STAR = 86.12

    def offsets(self, beam):
        w_z = beam_radius(2.0, beam)
        return [APERTURE + w_z * math.sqrt(x / 2.0) for x in self.XS]

    def test_gains_match_the_oracle_on_both_sides_of_the_bound(self, multimode_beam):
        assert channel._dark_x(multimode_beam.modes) == self.X_STAR
        rhos = self.offsets(multimode_beam)
        raw = [quad_captured_fraction(multimode_beam, None, 2.0, rho, APERTURE) for rho in rhos]
        got = [captured_fraction(multimode_beam, None, 2.0, rho, APERTURE) for rho in rhos]
        for g, w in zip(got, raw):
            assert_capture(g, w, rel=1e-9)
        assert got[self.XS.index(75.0)] > GAIN_FLOOR
        # Integrated, nonzero, and floored.
        assert 0.0 < raw[self.XS.index(80.0)] < GAIN_FLOOR
        assert got[self.XS.index(80.0)] == 0.0
        assert all(w <= GAIN_FLOOR for w, x in zip(raw, self.XS) if x > self.X_STAR)

    def test_dark_offsets_are_never_evaluated(self, multimode_beam, monkeypatch):
        rhos = self.offsets(multimode_beam)
        lit = sum(x < self.X_STAR for x in self.XS)
        planes = []

        def recording(x, modes, cs):
            planes.append(x.shape)
            return mode_sum(x, modes, cs)

        monkeypatch.setattr(channel, "mode_sum", recording)
        for rho, x in zip(rhos, self.XS):
            planes.clear()
            captured_fraction(multimode_beam, None, 2.0, rho, APERTURE)
            assert bool(planes) == (x < self.X_STAR)

        # The batched path: one user, one AP per offset, all links in one batch.
        aps = tuple(AccessPoint(position=(rho, 0.0, 3.0), beam=multimode_beam) for rho in rhos)
        scene = SimpleNamespace(
            room=SimpleNamespace(rx_plane_height=1.0),
            aps=aps,
            users=(UserTerminal(position=(0.0, 0.0), fov_half_angle=math.pi / 2),),
        )
        planes.clear()
        h = build_channel_matrix(scene)
        # Every offset lies past the disc (rho > a): a lit link has one
        # segment row, its arc, and a dark one none.
        assert sum(n for n, nodes in planes if nodes == FIRST_ROUND_NODES) == lit
        monkeypatch.undo()
        assert_bit_identical(h, per_link_channel(scene))


def scipy_power_outside(p, l, x):
    """One LG mode's power outside x = 2 r^2 / w_z^2, from scipy's Laguerre
    coefficients and regularized upper incomplete gamma function."""
    laguerre_poly = genlaguerre(p, l)
    density = np.polynomial.Polynomial(laguerre_poly.coeffs[::-1]) ** 2
    return sum(
        c * math.factorial(k + l) * gammaincc(k + l + 1, x) for k, c in enumerate(density.coef)
    ) * math.factorial(p) / math.factorial(p + l)


def power_outside(x, modes):
    return channel._power_outside(x, channel._tail_polynomial(modes))


class TestTailBound:
    """T(X), the fraction of a beam's power outside x = X, and the screen's
    threshold X*: the least multiple of 0.01 with T(X*) <= 1e-30."""

    XS = (0.01, 0.5, 2.0, 7.0, 20.0, 69.08, 86.12, 150.0, 400.0)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("l", range(7))
    def test_each_mode_matches_gammaincc(self, p, l):
        for x in self.XS:
            want = scipy_power_outside(p, l, x)
            assert power_outside(x, ((p, l, 1.0),)) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_fundamental_mode_is_exp(self):
        for x in self.XS:
            assert power_outside(x, FUNDAMENTAL_MODE) == math.exp(-x)

    def test_mode_mix_is_weighted_sum(self):
        want = sum(frac * scipy_power_outside(p, l, 30.0) for p, l, frac in DEFAULT_MODES)
        assert power_outside(30.0, DEFAULT_MODES) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a_over_w", np.linspace(0.1, 3.0, 8))
    def test_centred_disc_captures_one_minus_tail(self, multimode_beam, a_over_w):
        a = a_over_w * beam_radius(2.0, multimode_beam)
        got = captured_fraction(multimode_beam, None, 2.0, 0.0, a)
        assert got == pytest.approx(1.0 - power_outside(2.0 * a_over_w**2, DEFAULT_MODES),
                                    rel=1e-9)

    @pytest.mark.parametrize("modes, x_star",
                             [(DEFAULT_MODES, 86.12), (FUNDAMENTAL_MODE, 69.08)])
    def test_threshold_is_the_floor_rounded_up(self, modes, x_star):
        assert channel._dark_x(modes) == x_star
        assert power_outside(x_star, modes) <= GAIN_FLOOR < power_outside(x_star - 0.01, modes)
        # scipy agrees on which side of the floor each grid point lies.
        tails = [sum(f * scipy_power_outside(p, l, x) for p, l, f in modes)
                 for x in (x_star - 0.01, x_star)]
        assert tails[1] <= GAIN_FLOOR < tails[0]

    @pytest.mark.parametrize("modes, x_cut",
                             [(DEFAULT_MODES, 124.81), (FUNDAMENTAL_MODE, 105.92)])
    def test_cut_is_the_cut_tail_rounded_up(self, modes, x_cut):
        # The disc integral stops where T falls to 1e-46, 16 orders below the floor.
        level = channel._CUT_TAIL
        assert level == 1e-46
        assert channel._dark_x(modes, level) == x_cut
        assert power_outside(x_cut, modes) <= level < power_outside(x_cut - 0.01, modes)
        tails = [sum(f * scipy_power_outside(p, l, x) for p, l, f in modes)
                 for x in (x_cut - 0.01, x_cut)]
        assert tails[1] <= level < tails[0]

    def test_threshold_is_capped_where_exp_underflows(self, monkeypatch):
        channel._dark_x.cache_clear()
        monkeypatch.setattr(channel, "_MAX_DARK_X", 50.0)
        try:
            assert channel._dark_x(DEFAULT_MODES) == 50.0
        finally:
            channel._dark_x.cache_clear()

    def test_highest_orders_stay_exact(self):
        # The polynomial's coefficients alternate in sign and reach ~1e200
        # here: summed in floats they cancel to values far outside [0, 1].
        p, l = 12, 107

        def density(x):
            log_norm = math.lgamma(p + 1) - math.lgamma(p + l + 1)
            return math.exp(l * math.log(x) - x + log_norm) * eval_genlaguerre(p, l, x) ** 2

        want, _ = integrate.quad(density, 132.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        assert power_outside(132.0, ((p, l, 1.0),)) == pytest.approx(want, rel=1e-9)
        assert 132.0 < channel._dark_x(((p, l, 1.0),)) < channel._MAX_DARK_X

    def test_threshold_is_found_once_per_mode_set_in_a_sweep(self, scene_with_mpe):
        fundamental = dataclasses.replace(scene_with_mpe.aps[0].beam, modes=FUNDAMENTAL_MODE)
        aps = (dataclasses.replace(scene_with_mpe.aps[0], beam=fundamental),
               *scene_with_mpe.aps[1:])
        scene = dataclasses.replace(scene_with_mpe, aps=aps)
        channel._dark_x.cache_clear()
        channel._source.cache_clear()
        run_sweep(scene, SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=3))
        info = channel._dark_x.cache_info()
        assert info.misses == 2 * 2  # the screen's level and the cut's, per mode set
        # The cut's level once per source, two per point over six points.
        assert info.hits >= 6 * 2 - 2

    def test_first_call_is_cheap(self, monkeypatch):
        # An uncached call, at either level, builds the exact tail
        # polynomial once and bisects the 0.01 grid up to _MAX_DARK_X: one
        # T(X) per halving.
        calls = []
        tail_polynomial, tail = channel._tail_polynomial, channel._power_outside
        monkeypatch.setattr(channel, "_tail_polynomial",
                            lambda modes: calls.append("polynomial") or tail_polynomial(modes))
        monkeypatch.setattr(channel, "_power_outside",
                            lambda x, polynomial: calls.append("tail") or tail(x, polynomial))
        halvings = math.ceil(math.log2(channel._MAX_DARK_X * 100))
        assert halvings == 17
        for level in (GAIN_FLOOR, channel._CUT_TAIL):
            calls.clear()
            channel._dark_x.cache_clear()
            try:
                channel._dark_x(DEFAULT_MODES, level)
            finally:
                channel._dark_x.cache_clear()
            assert calls.count("polynomial") == 1
            assert 0 < calls.count("tail") <= halvings

    def test_runtime_imports_no_exact_or_scipy_arithmetic(self, tmp_path):
        config = tmp_path / "scene.ini"
        config.write_text(COMPACT_CONFIG, encoding="utf-8")
        args = ["--config", str(config), "--out", str(tmp_path / "out"), "--steps", "2"]
        code = (
            "import sys\n"
            "from vcselnet.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "print(sorted(m for m in ('fractions', 'decimal', 'scipy') if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[]"


@st.composite
def mode_sets(draw):
    """1-4 distinct LG modes with p <= 3 and l <= 6 and random power fractions."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                          min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return tuple((p, l, w / sum(weights)) for (p, l), w in zip(pairs, weights))


@settings(max_examples=30, deadline=None)
@given(
    modes=mode_sets(),
    w0=st.floats(1e-6, 1e-4),
    z=st.floats(0.5, 5.0),
    aperture=st.floats(1e-3, 5e-2),
    past=st.floats(1e-6, 2.0),
)
def test_screened_links_capture_less_than_the_floor(modes, w0, z, aperture, past):
    """A link just past X* is screened, and scipy's 2-D integral over its
    disc, in beam-centred polar coordinates, agrees it is dark."""
    beam = BeamSpec(w0=w0, wavelength=850e-9, modes=modes)
    w_z = beam_radius(z, beam)
    rho = aperture + w_z * math.sqrt((channel._dark_x(modes) + past) / 2.0)

    def unreachable(x, modes, cs):
        raise AssertionError("a screened link was integrated")

    with mock.patch.object(channel, "mode_sum", unreachable):
        assert captured_fraction(beam, None, z, rho, aperture) == 0.0

    def half_width(r):  # the disc's angular half width at radius r
        cos = (r * r + rho * rho - aperture * aperture) / (2.0 * r * rho)
        return math.acos(min(1.0, max(-1.0, cos)))

    oracle, _ = integrate.dblquad(
        lambda phi, r: independent_intensity(beam, r, z) * r,
        rho - aperture,
        rho + aperture,
        lambda r: -half_width(r),
        half_width,
        epsabs=0.0,
        epsrel=1e-6,
    )
    assert 0.0 <= oracle <= GAIN_FLOOR


def marcum_captured_fraction(beam, z, rho, aperture_radius):
    """A TEM00 beam's capture by a disc from Marcum's Q function. The beam's
    intensity is a 2-D normal density of variance w^2 / 4 per axis about its
    axis, so in units of w / 2 the distance r from the disc's centre follows
    the Rice density r exp(-(r^2 + alpha^2) / 2) I0(alpha r), alpha =
    2 rho / w, and the capture is 1 - Q1(alpha, beta) = ncx2.cdf(beta^2, 2,
    alpha^2), beta = 2 a / w. That integral is taken by quad, in the depth
    t = beta - r below the disc's edge: with delta = 2 (rho - a) / w formed
    directly, (r - alpha)^2 = (t + delta)^2 keeps its digits where beta and
    alpha are large and close. ncx2.cdf loses about 1e-12 of its value deep
    in its lower tail."""
    zr = math.pi * beam.w0**2 / beam.wavelength
    w = beam.w0 * math.sqrt(1.0 + (z / zr) ** 2)
    a = aperture_radius
    alpha, beta, delta = 2.0 * rho / w, 2.0 * a / w, 2.0 * (rho - a) / w
    if alpha == 0.0:
        return -math.expm1(-0.5 * beta * beta)

    def rice(t):  # i0e(x) = exp(-x) I0(x) keeps the product finite
        return (beta - t) * math.exp(-0.5 * (t + delta) ** 2) * i0e(alpha * (beta - t))

    points = sorted(k - delta for k in (-10.0, -3.0, 0.0, 3.0, 10.0) if 0.0 < k - delta < beta)
    value, _ = integrate.quad(rice, 0.0, beta, points=points or None, epsabs=1e-45, epsrel=1e-13,
                              limit=500)
    return value


LINKS = dict(
    w0=st.floats(1e-6, 5e-4),
    z=st.floats(0.01, 5.0),
    aperture=st.floats(3e-4, 5e-2),
    rho_over_a=st.floats(1e-3, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(**LINKS)
@example(w0=1e-4, z=2.0, aperture=5e-3, rho_over_a=0.0)
@example(w0=1e-4, z=2.0, aperture=5e-3, rho_over_a=1.0)
@example(w0=5e-4, z=0.01, aperture=5e-2, rho_over_a=0.0)
@example(w0=5e-4, z=0.01, aperture=5e-2, rho_over_a=1.0)
@example(w0=1e-6, z=5.0, aperture=3e-4, rho_over_a=10.0)
@example(w0=1e-6, z=0.01, aperture=1e-2, rho_over_a=0.99999)  # beam axis near the disc's edge
@example(w0=1e-6, z=0.01, aperture=1e-2, rho_over_a=1.00001)
@example(w0=1e-4, z=2.0, aperture=5e-3, rho_over_a=7.125)  # 2e-30, just above the floor
def test_fundamental_links_match_marcum_q(w0, z, aperture, rho_over_a):
    """TEM00 links from beams 10^4 times wider than the disc down to 1 % of
    its radius, on axis, off axis and at the disc's edge, within 1e-12 of
    Marcum's Q function."""
    beam = BeamSpec(w0=w0, wavelength=850e-9, modes=FUNDAMENTAL_MODE)
    rho = rho_over_a * aperture
    got = captured_fraction(beam, None, z, rho, aperture)
    assert_capture(got, marcum_captured_fraction(beam, z, rho, aperture), rel=1e-12)


@pytest.mark.parametrize("w_over_a, rho_over_a", [(0.013, 0.5), (0.017, 1.02)])
def test_a_beam_narrower_than_the_disc_is_captured(w_over_a, rho_over_a):
    """A beam 1-2 % of the disc's radius, inside the disc and just past its
    edge, where a detector-centred 2-D quadrature's nodes straddle it and
    report ~0: 1.0 and 9.2e-3 by Marcum's Q function."""
    beam = BeamSpec(w0=1e-4, wavelength=850e-9, modes=FUNDAMENTAL_MODE)
    aperture = 1e-2
    w = w_over_a * aperture
    z = math.pi * beam.w0**2 / beam.wavelength * math.sqrt((w / beam.w0) ** 2 - 1.0)
    rho = rho_over_a * aperture
    want = ncx2.cdf(4.0 * aperture**2 / w**2, 2, 4.0 * rho**2 / w**2)
    assert want > 9e-3
    assert captured_fraction(beam, None, z, rho, aperture) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(modes=mode_sets(), **LINKS)
@example(modes=DEFAULT_MODES, w0=5e-6, z=2.0, aperture=APERTURE, rho_over_a=0.0)
@example(modes=DEFAULT_MODES, w0=5e-4, z=0.01, aperture=5e-2, rho_over_a=1.0)
@example(modes=((3, 6, 1.0),), w0=2e-4, z=0.3, aperture=5e-2, rho_over_a=0.5)
@example(modes=((2, 6, 1.0),), w0=2.5e-6, z=0.8, aperture=3.5e-3, rho_over_a=1.0 + 1e-15)
def test_multimode_links_match_radial_quad(modes, w0, z, aperture, rho_over_a):
    """Mixed LG modes against scipy's adaptive radial quadrature."""
    beam = BeamSpec(w0=w0, wavelength=850e-9, modes=modes)
    rho = rho_over_a * aperture
    got = captured_fraction(beam, None, z, rho, aperture)
    assert_capture(got, quad_captured_fraction(beam, None, z, rho, aperture), rel=1e-9)


def _swap_halves(bits):
    return (bits << np.uint64(32)) | (bits >> np.uint64(32))


class TestDistinct:
    """_distinct groups elements by the bits of their (a, b) pair."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_element_gets_its_own_bits_back(self, data):
        # A few values, which may be nan, inf or -0.0, repeated over the array.
        values = np.array(data.draw(st.lists(st.floats(), min_size=1, max_size=6)))
        shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
        pick = st.lists(st.integers(0, values.size - 1), min_size=shape[0] * shape[1],
                        max_size=shape[0] * shape[1])
        a = values[data.draw(pick)].reshape(shape)
        b = values[data.draw(pick)].reshape(shape)
        xs, ys, of = _distinct(a, b)
        assert of.shape == shape
        assert np.array(xs)[of].tobytes() == a.tobytes()
        assert np.array(ys)[of].tobytes() == b.tobytes()
        a_bits, b_bits = a.view(np.uint64).ravel(), b.view(np.uint64).ravel()
        pairs = set(zip(a_bits.tolist(), b_bits.tolist()))
        keys = {x ^ int(_swap_halves(np.uint64(y))) for x, y in pairs}
        if a.size < _DEDUP_MIN_LINKS:
            assert len(xs) == a.size
        elif len(keys) == len(pairs):  # no two pairs share a sort key
            assert len(xs) == len(pairs)

    def test_colliding_keys_split_but_never_mix(self):
        # (a2, b2) differs from (a1, b1) but has the same sort key.
        a1, b1 = np.array([1.0]).view(np.uint64), np.array([2.0]).view(np.uint64)
        d = np.uint64(1 << 40)
        a2, b2 = a1 ^ d, b1 ^ _swap_halves(d)
        assert a1 ^ _swap_halves(b1) == a2 ^ _swap_halves(b2)
        a = np.tile(np.concatenate([a1, a2]), 50).view(float)
        b = np.tile(np.concatenate([b1, b2]), 50).view(float)
        xs, ys, of = _distinct(a, b)
        assert len(xs) >= 2
        assert np.array(xs)[of].tobytes() == a.tobytes()
        assert np.array(ys)[of].tobytes() == b.tobytes()


class TestChannelMatrix:
    def test_default_scene_geometry(self):
        scene = default_scene()
        h = build_channel_matrix(scene)
        assert h.gains.shape == (4, 4)
        assert np.all(h.distances == 2.0)
        assert h.offsets[0, 0] == 0.0
        assert h.offsets[0, 1] == pytest.approx(2.0)
        assert h.offsets[0, 3] == pytest.approx(2.0 * math.sqrt(2.0))

    def test_diagonal_dominates(self):
        h = build_channel_matrix(default_scene())
        diag = np.diag(h.gains)
        off = h.gains - np.diag(diag)
        assert np.all(diag > 0)
        assert off.max() < diag.min()

    def test_symmetric_for_symmetric_layout(self):
        # The default square AP grid with on-axis users makes equal-offset
        # pairs; the gain matrix inherits the symmetry.
        h = build_channel_matrix(default_scene())
        assert np.allclose(h.gains, h.gains.T, rtol=1e-9, atol=0.0)

    def test_entries_match_direct_evaluation(self):
        scene = default_scene()
        h = build_channel_matrix(scene)
        ap = scene.aps[1]
        user = scene.users[0]
        rho = math.hypot(
            user.position[0] - ap.position[0], user.position[1] - ap.position[1]
        )
        expected = captured_fraction(
            ap.beam, ap.lens, 2.0, rho, math.sqrt(user.detector_area / math.pi)
        )
        assert h.gains[0, 1] == expected

    def test_fov_zeroes_out_of_view_links(self):
        scene = default_scene()
        narrow = tuple(
            dataclasses.replace(u, fov_half_angle=0.1) for u in scene.users
        )
        h = build_channel_matrix(dataclasses.replace(scene, users=narrow))
        # On-axis arrivals (incidence 0) survive; the 2 m offset links arrive
        # at atan(2/2) ~ 0.785 rad and are cut.
        assert np.all(np.diag(h.gains) > 0)
        off = h.gains - np.diag(np.diag(h.gains))
        assert np.all(off == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    modes=st.sampled_from([FUNDAMENTAL_MODE, DEFAULT_MODES]),
    w0=st.sampled_from([1e-6, 5e-6, 8e-6]),
    z=st.floats(0.5, 3.0),
    aperture=st.sampled_from([APERTURE, 0.5 * APERTURE]),
    rho=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=6),
)
def test_merged_first_round_matches_separate_orders(modes, w0, z, aperture, rho):
    """Orders 16 and 32 in one kernel call give, bit for bit, what each order
    gives alone; the adaptive capture of the offsets together gives each
    offset's own captured_fraction, and the radial quad oracle's value."""
    beam = BeamSpec(w0, 850e-9, modes)
    offsets = np.array(rho)
    r_cut = np.full(offsets.size, cut_radius(beam, z))
    table = source_table(beam, z, offsets.size)
    merged = channel._radial_capture(modes, table, offsets, aperture, r_cut, (16, 32))
    for order, got in zip((16, 32), merged):
        (alone,) = channel._radial_capture(modes, table, offsets, aperture, r_cut, (order,))
        assert got.tobytes() == alone.tobytes()
    (whole,) = channel._disc_capture([channel._source(beam, None, z)], offsets, aperture)
    assert whole.tolist() == [captured_fraction(beam, None, z, x, aperture) for x in rho]
    assert_capture(whole[0], quad_captured_fraction(beam, None, z, rho[0], aperture), rel=1e-9)


def both_segments_capture(modes, consts, rho, aperture, r_cut, orders):
    """The reference the segment-row kernel must match bit for bit: every
    link evaluates both segments, each order's nodes side by side in each,
    an empty segment contributing through its zero weights, and each
    order's two segment sums halved column by column on their own."""
    rules = [np.polynomial.legendre.leggauss(order) for order in orders]
    t = np.concatenate([0.5 * (x + 1.0) for x, _ in rules])
    theta = np.concatenate([0.5 * math.pi * (x + 1.0) for x, _ in rules])
    w = np.concatenate([w for _, w in rules])
    w_t, c, w_c = math.pi * w, -np.cos(theta), math.pi * w * np.sin(theta)
    a = aperture
    rho, r_cut = rho[:, None], r_cut[:, None]
    inner = np.clip(a - rho, 0.0, r_cut)
    lo = np.abs(rho - a)
    hi = np.maximum(lo, np.minimum(rho + a, r_cut))
    s_lo = np.sqrt(lo / hi)
    mid, half = 0.5 * (1.0 + s_lo), 0.5 * (1.0 - s_lo)
    s = mid + half * c
    r_in, r_arc = inner * t, hi * (s * s)
    rho_arc = np.where(half > 0.0, rho, 1.0)
    cos_psi = (r_arc * r_arc + (rho - a) * (rho + a)) / (2.0 * r_arc * rho_arc)
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
    r = np.concatenate([r_in, r_arc], axis=1)
    weights = np.concatenate([inner * w_t * r_in, half * w_c * psi * r_arc * (2.0 * hi * s)],
                             axis=1)
    w_z_sq, *cs = consts.T[:, :, None]
    terms = mode_sum(2.0 * np.square(r) / w_z_sq, modes, cs) * weights

    def row_sums(block):
        while block.shape[1] > 1:
            block = block[:, ::2] + block[:, 1::2]
        return block[:, 0]

    sums, start = [], 0
    for order in orders:
        arc = start + t.size
        sums.append(row_sums(terms[:, start : start + order])
                    + row_sums(terms[:, arc : arc + order]))
        start += order
    return sums


# An offset in units of the aperture radius, or the float just above or
# below the radius itself.
NEXT_TO_EDGE = {"above": math.inf, "below": 0.0}
EDGE_CASES = [
    (0.0, False, 0),  # on axis: the circle alone
    (1.0, False, 1),  # the axis on the disc's edge: the arc alone, from r = 0
    ("above", False, 0),  # just outside: the arc alone
    ("below", False, 1),  # just inside: a circle one ulp wide, and the arc
    ("below", True, 0),  # r_cut < a - rho: the circle alone, cut short
    (0.3, True, 1),  # r_cut < a - rho: the circle alone, cut short
    (3.0, True, 0),  # r_cut < rho - a: no segment at all
    (3.0, False, 1),  # the arc alone
]


@settings(max_examples=60, deadline=None)
@example(modes=DEFAULT_MODES, w0s=(5e-6, 1e-6), z=2.0, aperture=APERTURE, links=EDGE_CASES,
         orders=(16, 32))
@example(modes=FUNDAMENTAL_MODE, w0s=(8e-6, 1e-6), z=0.5, aperture=0.5 * APERTURE,
         links=EDGE_CASES, orders=(64,))
@given(
    modes=st.sampled_from([FUNDAMENTAL_MODE, DEFAULT_MODES]),
    w0s=st.tuples(*[st.sampled_from([1e-6, 5e-6, 8e-6])] * 2),
    z=st.floats(0.5, 3.0),
    aperture=st.sampled_from([APERTURE, 0.5 * APERTURE]),
    links=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0, "above", "below"]),
                                       st.floats(0.0, 40.0)),
                             st.booleans(), st.integers(0, 1)), min_size=1, max_size=8),
    orders=st.sampled_from([(16, 32), (64,), (256, 512)]),
)
def test_segment_rows_match_both_segments_bit_for_bit(modes, w0s, z, aperture, links, orders):
    """The kernel evaluates only the segments that have length, each as one
    row of every order's nodes; each link's value per order equals, bit for
    bit, the value of evaluating both segments, empty ones included.
    A link is drawn as its offset, whether r_cut falls short of |rho - a|
    (half of it), and which of two sources' constants rows it reads."""
    beams = [BeamSpec(w0, 850e-9, modes) for w0 in w0s]
    rho = np.array([math.nextafter(aperture, NEXT_TO_EDGE[u]) if isinstance(u, str)
                    else u * aperture for u, _, _ in links])
    r_cut = np.array([0.5 * abs(x - aperture) if short and x != aperture
                      else cut_radius(beams[row], z) for x, (_, short, row) in zip(rho, links)])
    table = np.array([mode_constants(z, beams[row]) for *_, row in links])
    got = channel._radial_capture(modes, table, rho, aperture, r_cut, orders)
    want = both_segments_capture(modes, table, rho, aperture, r_cut, orders)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


class TestSourceCaches:
    """Each (beam, lens, drop) source's quadrature constants are derived
    once and then read from a bounded cache keyed by value."""

    def test_every_cache_is_bounded(self):
        caches = [fn for module in (beam_optics, eye_safety, channel)
                  for fn in vars(module).values() if hasattr(fn, "cache_parameters")]
        assert {fn.__name__ for fn in caches} >= {"_source", "_dark_x", "_radial_nodes"}
        assert all(fn.cache_parameters()["maxsize"] is not None for fn in caches)

    def test_equal_but_distinct_specs_give_bit_identical_caps_and_channels(self, compact_scene):
        scene = place_users(compact_scene, 4, seed=3)
        copies = dataclasses.replace(scene, safety=dataclasses.replace(scene.safety), aps=tuple(
            dataclasses.replace(ap, beam=dataclasses.replace(ap.beam),
                                lens=ap.lens and dataclasses.replace(ap.lens))
            for ap in scene.aps))
        assert copies.aps[0].beam is not scene.aps[0].beam
        assert copies.aps[0].lens == scene.aps[0].lens is not None

        def outputs(scn):
            caps = [max_safe_power(ap.beam, scn.safety, ap.lens) for ap in scn.aps]
            return ([float(x).hex() for cap in caps for x in dataclasses.astuple(cap)],
                    build_channel_matrix(scn).gains.tobytes())

        channel._source.cache_clear()
        fresh = outputs(scene)
        misses = channel._source.cache_info().misses
        assert outputs(copies) == fresh  # read from the cache: nothing derived again
        assert channel._source.cache_info().misses == misses
        channel._source.cache_clear()
        assert outputs(copies) == fresh  # derived afresh from the copies

    def test_signed_zeros_that_compare_equal_give_the_same_bits(self, compact_scene):
        # +0.0 == -0.0 as a lens's d1 or a mode's fraction, so either may be
        # the key the cache holds; both must derive the same bits.
        beam = compact_scene.aps[0].beam

        def derived(zero):
            channel._source.cache_clear()
            src = dataclasses.replace(beam, modes=beam.modes + ((2, 0, zero),))
            source = channel._source(src, LensSpec(f=127e-6, d1=zero), 2.0)
            return [float(x).hex() for x in (*source.consts, source.r_cut)]

        assert derived(0.0) == derived(-0.0)


GRID = st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0, 2.0])


@st.composite
def scenes(draw, counts=st.integers(1, 5), heights=st.sampled_from([2.5, 3.0])):
    """Random stand-in scenes: the fields build_channel_matrix reads.

    Like Scene, which pins every AP to the ceiling, a scene puts all its
    APs at one height. Positions come from a small grid so users coincide
    with APs and with each other, and links repeat their geometry. Offsets
    up to 2*sqrt(2) m give links past the tail threshold (channel._dark_x),
    which are never integrated, and integrated links whose gains fall below
    the floor, with the lens off as well as on: about half the scenes hold
    the first kind and a third the second. counts draws the number of APs
    and of users, heights the APs' one height above the floor (the receive
    plane is at 1 m).
    """
    lens = LensSpec(f=127e-6, d1=133e-6)
    height = draw(heights)
    aps = tuple(
        AccessPoint(
            position=(draw(GRID), draw(GRID), height),
            beam=BeamSpec(
                w0=draw(st.sampled_from([1e-6, 5e-6, 8e-6])),
                wavelength=850e-9,
                modes=draw(st.sampled_from([FUNDAMENTAL_MODE, DEFAULT_MODES])),
            ),
            lens=draw(st.sampled_from([None, lens])),
        )
        for _ in range(draw(counts))
    )
    users = tuple(
        UserTerminal(
            position=(draw(GRID), draw(GRID)),
            detector_area=draw(st.sampled_from([1e-4, 2e-4])),
            fov_half_angle=draw(st.sampled_from([math.pi / 2, 0.2])),
        )
        for _ in range(draw(counts))
    )
    return SimpleNamespace(room=SimpleNamespace(rx_plane_height=1.0), aps=aps, users=users)


@settings(max_examples=40, deadline=None)
@given(scene=scenes())
def test_batched_channel_matches_scalar_oracle(scene):
    assert_bit_identical(build_channel_matrix(scene), per_link_channel(scene))


def at_waist(scene, waist, lens):
    """scene with its beams set to one waist and one lens state: each
    distinct beam rebuilt once, AP positions kept, as a sweep point does."""
    rebuilt = {}
    aps = tuple(
        dataclasses.replace(
            ap, beam=rebuilt.setdefault(ap.beam, dataclasses.replace(ap.beam, w0=waist)), lens=lens
        )
        for ap in scene.aps
    )
    return SimpleNamespace(room=scene.room, aps=aps, users=scene.users)


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), waist=st.sampled_from([1e-6, 3e-6, 8e-6]), lens_on=st.booleans())
def test_reused_geometry_matches_scalar_oracle(scene, waist, lens_on):
    """A geometry built once serves the scene at another waist and lens state."""
    lens = LensSpec(f=127e-6, d1=133e-6) if lens_on else None
    moved = at_waist(scene, waist, lens)
    h = build_channel_matrix(moved, link_geometry(scene))
    assert_bit_identical(h, per_link_channel(moved))


def test_concurrent_builds_match_serial_builds(compact_scene):
    """Builds on four threads at once give the serial bytes: the kernel
    keeps no state between calls."""
    scene = place_users(compact_scene, 4, seed=3)
    design = scene.lens_design
    points = [(1e-6, None), (8e-6, None), (3e-6, design), (8e-6, design)]
    moved = [at_waist(scene, waist, lens) for waist, lens in points]
    serial = [build_channel_matrix(s).gains.tobytes() for s in moved]
    assert len(set(serial)) == len(serial)
    rounds = 5
    got = [[] for _ in moved]
    start = threading.Barrier(len(moved), timeout=60)

    def build(i):
        start.wait()
        for _ in range(rounds):
            got[i].append(build_channel_matrix(moved[i]).gains.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(moved))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * rounds for want in serial]


def assert_plan(geometry):
    """Every batch's offsets and inverse are np.unique's of its links' offsets."""
    for links, *_, rho, inverse in geometry.batches:
        want_rho, want_inverse = np.unique(geometry.offsets.flat[links], return_inverse=True)
        assert np.all(rho[1:] > rho[:-1])
        assert rho[inverse].tobytes() == geometry.offsets.flat[links].tobytes()
        assert rho.tobytes() == want_rho.tobytes()
        assert inverse.tobytes() == want_inverse.tobytes()


@settings(max_examples=40, deadline=None)
@given(scene=scenes(counts=st.integers(8, 12), heights=st.sampled_from([2.5, 2.9])))
def test_batch_plan_is_the_unique_plan(scene):
    """From 64 links on, where _distinct sorts the (dx, dy) steps, each
    batch's offsets are the scene's distinct offsets that its links use:
    strictly ascending, giving every link its own offset back, and equal to
    what np.unique makes of the links. _distinct numbers the steps out of
    offset order, so the plan's own sort is what puts them in order."""
    geometry = link_geometry(scene)
    assert geometry.offsets.size >= _DEDUP_MIN_LINKS
    assert_plan(geometry)


def unique_plan(scene):
    """link_geometry's offsets and batches as np.unique ranked the distinct
    offsets, before link_geometry ranked them with sorted(set(...)) and a
    dict: the reference the plan must match bit for bit."""
    aps, users = scene.aps, scene.users
    z = aps[0].position[2] - scene.room.rx_plane_height
    ap_xy = np.array([ap.position[:2] for ap in aps], dtype=float)
    user_xy = np.array([user.position for user in users], dtype=float)
    dx = user_xy[:, None, 0] - ap_xy[None, :, 0]
    dy = user_xy[:, None, 1] - ap_xy[None, :, 1]
    step_x, step_y, step_of = _distinct(dx, dy)
    distinct, step_offset = np.unique([math.hypot(x, y) for x, y in zip(step_x, step_y)],
                                      return_inverse=True)
    offset_of = step_offset[step_of]
    angles = np.array([math.atan2(rho, z) for rho in distinct.tolist()])
    fov = np.array([user.fov_half_angle for user in users], dtype=float)
    visible = ~(angles[offset_of] > fov[:, None])
    discs: dict = {}
    user_disc = np.array([discs.setdefault(math.sqrt(user.detector_area / math.pi), len(discs))
                          for user in users])
    batches = []
    for d, aperture in enumerate(discs):
        links = np.flatnonzero(visible & (user_disc == d)[:, None])
        if links.size:
            index = offset_of.flat[links]
            present = np.bincount(index, minlength=distinct.size) > 0
            batches.append((links, links % len(aps), aperture, distinct[present],
                            (np.cumsum(present) - 1)[index]))
    return distinct[offset_of], batches


@settings(max_examples=60, deadline=None)
@given(scene=scenes(counts=st.integers(1, 12)))
def test_batch_plan_matches_the_np_unique_plan_bit_for_bit(scene):
    """Coincident users and offsets repeated across links and users, below
    and above _DEDUP_MIN_LINKS: every array of the plan has the bytes and
    dtype of np.unique's plan."""
    geometry = link_geometry(scene)
    offsets, batches = unique_plan(scene)
    assert geometry.offsets.dtype == offsets.dtype
    assert geometry.offsets.tobytes() == offsets.tobytes()
    assert len(geometry.batches) == len(batches)
    for got, want in zip(geometry.batches, batches):
        assert got[2] == want[2]
        for got_array, want_array in zip(got[:2] + got[3:], want[:2] + want[3:]):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()


def test_a_small_scene_still_integrates_each_offset_once():
    # 16 links, below _DEDUP_MIN_LINKS, so one group per link; the plan
    # still merges equal offsets: 0, 2 and 2 sqrt(2) m.
    geometry = link_geometry(default_scene())
    assert geometry.offsets.size < _DEDUP_MIN_LINKS
    assert [rho.size for *_, rho, _ in geometry.batches] == [3]
    assert_plan(geometry)


class TestLinkGeometry:
    @pytest.fixture
    def scene(self, compact_scene):
        return place_users(compact_scene, 3, seed=0)

    def test_a_reconfigured_scene_reuses_it(self, scene):
        geometry = link_geometry(scene)
        point = _configure(scene, 2e-6, "on")
        h = build_channel_matrix(point, geometry)
        assert_bit_identical(h, [getattr(build_channel_matrix(point), name)
                                 for name in ("gains", "distances", "offsets")])
        assert not np.shares_memory(h.offsets, geometry.offsets)

    def test_another_scene_is_refused(self, scene):
        geometry = link_geometry(scene)
        aps = list(scene.aps)
        aps[3] = dataclasses.replace(aps[3], position=(0.5, 0.5, 3.0))
        room = dataclasses.replace(scene.room, rx_plane_height=0.9)
        others = {
            "users": place_users(scene, 3, seed=1),
            "aps": dataclasses.replace(scene, aps=tuple(aps)),
            "room": dataclasses.replace(scene, room=room),
            "fewer aps": dataclasses.replace(scene, aps=scene.aps[:3]),
        }
        for name, other in others.items():
            with pytest.raises(DomainError, match="another scene"):
                build_channel_matrix(other, geometry)

    def test_aps_that_no_longer_share_a_source_are_served(self, scene):
        # All four APs shared one source when the geometry was built; the
        # geometry holds positions alone, and each build groups its sources.
        geometry = link_geometry(scene)
        aps = list(scene.aps)
        beam = dataclasses.replace(aps[2].beam, wavelength=940e-9)
        aps[2] = dataclasses.replace(aps[2], beam=beam)
        moved = dataclasses.replace(scene, aps=tuple(aps))
        assert len(channel.distinct_sources(moved.aps)[0]) == 2
        assert_bit_identical(build_channel_matrix(moved, geometry),
                             [getattr(build_channel_matrix(moved), name)
                              for name in ("gains", "distances", "offsets")])

    def test_equal_copies_of_a_shared_source_still_share_it(self, scene):
        # A build groups sources by identity first and by value where the
        # objects differ: APs holding equal copies still share a source.
        geometry = link_geometry(scene)
        aps = tuple(dataclasses.replace(ap, beam=dataclasses.replace(ap.beam, w0=3e-6),
                                        lens=scene.lens_design)
                    for ap in scene.aps)
        assert len({id(ap.beam) for ap in aps}) == len(aps)
        assert channel.distinct_sources(aps)[1].tolist() == [0] * len(aps)
        moved = dataclasses.replace(scene, aps=aps)
        assert_bit_identical(build_channel_matrix(moved, geometry),
                             [getattr(build_channel_matrix(moved), name)
                              for name in ("gains", "distances", "offsets")])

    def test_listed_points_with_other_modes_are_integrated_apart(self, scene):
        # A batch's announced sources go through one pass per mode set; the
        # first build integrates both, and the memo is keyed by their values.
        points = [scene, dataclasses.replace(scene, aps=tuple(
            dataclasses.replace(ap, beam=dataclasses.replace(ap.beam, modes=FUNDAMENTAL_MODE))
            for ap in scene.aps))]
        sources = [(point.aps[0].beam, point.aps[0].lens) for point in points]
        assert sources[0] != sources[1]
        geometry = link_geometry(scene, tuple(sources))
        for point in reversed(points):
            h = build_channel_matrix(point, geometry)
            assert geometry.captures.keys() == set(sources)
            assert h.gains.tobytes() == build_channel_matrix(point).gains.tobytes()
