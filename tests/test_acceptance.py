"""Acceptance gate: one test per contract criterion, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every criterion is asserted at its stated tolerance — none are
loosened. The trend-reproduction criterion states the paper's beam-waist
claims in the waist the transmitter emits: the source waist w0 with the lens
off, the relayed waist w_l with it on. No thin lens can enlarge every source,
because its magnification k = f / sqrt((d1 - f)^2 + z_r^2) is at most f / z_r;
the fixed micro-lens (f = 127 um, d1 = 133 um) passes k = 1 at
w0 = sqrt(lambda sqrt(f^2 - (d1 - f)^2) / pi) ~ 5.86 um and demagnifies wider
sources, which the test asserts rather than hides.
"""

import dataclasses
import math
import time

import numpy as np
from scipy import integrate

from vcselnet import (
    BeamSpec,
    SafetySpec,
    SweepSpec,
    beam_intensity,
    beam_radius,
    captured_fraction,
    default_scene,
    d86_distance,
    lens_transform,
    LensSpec,
    max_safe_power,
    most_hazardous_position,
    noise_variance,
    pupil_fraction,
    rayleigh_range,
    run_sweep,
    zf_precoder,
)
from vcselnet.cli import main
from vcselnet.errors import SingularChannelError

from conftest import COMPACT_CONFIG, DEFAULT_MPE, one_mode

FUNDAMENTAL = BeamSpec(w0=5e-6, wavelength=850e-9, modes=((0, 0, 1.0),))
SAFETY = SafetySpec(mpe=DEFAULT_MPE)


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_mode_normalization():
    """Every default transverse mode integrates to unit power at three planes."""
    t0 = time.perf_counter()
    beam = BeamSpec(w0=5e-6, wavelength=850e-9)
    zr = rayleigh_range(beam)
    worst = 0.0
    for p, l, _ in beam.modes:
        for z in (0.0, zr, 2.0):
            w = beam_radius(z, beam)
            mode = one_mode(beam, p, l)
            val, _ = integrate.quad(
                lambda r: beam_intensity(r, z, mode) * 2.0 * math.pi * r,
                0.0,
                12.0 * w,
                limit=200,
            )
            worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(
        "mode normalization",
        ok,
        f"24 plane integrals, worst |integral - 1| = {worst:.2e} "
        f"(tol 1e-6), {elapsed:.2f}s (budget 5s)",
    )


def test_rayleigh_and_far_field():
    """Rayleigh range and 2 m spot size hit the derived values; the divergence
    settles onto its asymptote past 100 Rayleigh ranges."""
    zr = rayleigh_range(FUNDAMENTAL)
    zr_err = abs(zr - 9.2400e-5)
    w2 = beam_radius(2.0, FUNDAMENTAL)
    w2_err = abs(w2 - 0.10823) / 0.10823
    # Half divergence seen from the waist, atan(w(z) / z), against its
    # asymptote atan(lambda / (pi w0)).
    theta_ff = math.atan(FUNDAMENTAL.wavelength / (math.pi * FUNDAMENTAL.w0))
    ff_err = max(
        abs(math.atan(beam_radius(z, FUNDAMENTAL) / z) - theta_ff) / theta_ff
        for z in (100 * zr, 314 * zr, 1e4 * zr, 1e6 * zr)
    )
    ok = zr_err <= 1e-9 and w2_err <= 1e-3 and ff_err <= 1e-3
    assert report(
        "rayleigh range and far field",
        ok,
        f"z_r = {zr:.6e} m (|err| = {zr_err:.1e}, tol 1e-9); "
        f"w(2 m) = {w2:.6f} m (rel err {w2_err:.1e}, tol 1e-3); "
        f"far-field rel err <= {ff_err:.1e} for z >= 100 z_r (tol 1e-3)",
    )


def test_lens_against_abcd_oracle():
    """Thin-lens waist relay vs the complex-beam-parameter oracle on a
    100-point grid, with the exact focal-plane special case."""
    f = 0.127e-3
    worst = 0.0
    for w0 in np.linspace(1e-6, 8e-6, 10):
        beam = BeamSpec(w0=float(w0), wavelength=850e-9, modes=((0, 0, 1.0),))
        zr = rayleigh_range(beam)
        for d1 in np.linspace(0.5 * f, 2.0 * f, 10):
            tb = lens_transform(beam, LensSpec(f=f, d1=float(d1)))
            q2 = complex(d1, zr) / (1.0 - complex(d1, zr) / f)
            d2_o, wl_o = -q2.real, math.sqrt(850e-9 * q2.imag / math.pi)
            worst = max(
                worst,
                abs(tb.d2 - d2_o) / max(abs(d2_o), 1e-3 * f),
                abs(tb.w_l - wl_o) / wl_o,
            )
    at_focus = lens_transform(FUNDAMENTAL, LensSpec(f=f, d1=f))
    exact = at_focus.d2 == f
    ok = worst <= 1e-3 and exact
    assert report(
        "lens vs ABCD oracle",
        ok,
        f"100-point grid worst rel err = {worst:.2e} (tol 1e-3); "
        f"d2 == f at d1 = f is {'exact' if exact else 'NOT exact'}",
    )


def test_eye_safety_loop_closure():
    """The hazard-distance definition closes on itself: the pupil captures 86%
    at d86, the derived d86 matches, and the floor sets the MHP."""
    d86 = d86_distance(FUNDAMENTAL, SAFETY)
    eta = pupil_fraction(FUNDAMENTAL, d86, SAFETY)
    mhp = most_hazardous_position(FUNDAMENTAL, SAFETY)
    eta_err = abs(eta - 0.86)
    d86_err = abs(d86 - 0.06524) / 0.06524
    ok = eta_err <= 0.005 and d86_err <= 1e-3 and mhp == 0.1
    assert report(
        "eye safety loop closure",
        ok,
        f"eta(d86) = {eta:.6f} (|err| = {eta_err:.1e}, tol 5e-3); "
        f"d86 = {d86:.6f} m (rel err {d86_err:.1e}, tol 1e-3); MHP = {mhp} m",
    )


def test_channel_capture_oracle():
    """Centered fundamental capture at 2 m: quadrature vs the closed form."""
    aperture = math.sqrt(2e-4 / math.pi)
    got = captured_fraction(FUNDAMENTAL, None, 2.0, 0.0, aperture)
    w = beam_radius(2.0, FUNDAMENTAL)
    closed = 1.0 - math.exp(-2.0 * aperture**2 / w**2)
    target_err = abs(got - 0.01086)
    closed_err = abs(got - closed)
    ok = target_err <= 1e-4 and closed_err <= 1e-9
    assert report(
        "channel capture oracle",
        ok,
        f"captured = {got:.8f}; |err vs 0.01086| = {target_err:.2e} (tol 1e-4); "
        f"|quadrature - closed form| = {closed_err:.2e}",
    )


def test_zero_forcing_property_suite():
    """1000 seeded random full-rank channels up to condition 1e6: interference
    suppression, inverse accuracy, and the documented rank-deficiency error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst_off = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        n_users = int(rng.integers(1, 9))
        n_aps = int(rng.integers(n_users, 9))
        log10_cond = float(rng.uniform(0.0, 6.0))
        qa, _ = np.linalg.qr(rng.standard_normal((n_users, n_users)))
        qb, _ = np.linalg.qr(rng.standard_normal((n_aps, n_aps)))
        h = qa @ np.diag(np.logspace(0.0, -log10_cond, n_users)) @ qb[:n_users, :]
        pre = zf_precoder(h, 1.0)
        hg = h @ pre.g
        diag = np.abs(np.diag(hg))
        off = hg - np.diag(np.diag(hg))
        if off.size > 1:
            worst_off = max(worst_off, np.abs(off).max() / diag.max())
        worst_identity = max(
            worst_identity, np.abs(h @ pre.g0 - np.eye(n_users)).max()
        )
    singular_raises = False
    try:
        zf_precoder(np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0)
    except SingularChannelError:
        singular_raises = True
    elapsed = time.perf_counter() - t0
    ok = (
        worst_off <= 1e-9
        and worst_identity <= 1e-10
        and singular_raises
        and elapsed < 10.0
    )
    assert report(
        "zero-forcing property suite",
        ok,
        f"1000 draws: worst off-diag/diag = {worst_off:.2e} (tol 1e-9), "
        f"worst |H G0 - I| = {worst_identity:.2e} (tol 1e-10), "
        f"singular raises = {singular_raises}, {elapsed:.2f}s (budget 10s)",
    )


def test_noise_arithmetic():
    """Thermal, shot, and preamp variances against the derived values."""
    elec = default_scene().electrical
    thermal = noise_variance(0.0, elec).thermal
    shot = noise_variance(1e-3, elec).shot
    preamp = noise_variance(0.0, elec).preamp
    errs = (
        abs(thermal - 1.834e-12) / 1.834e-12,
        abs(shot - 5.607e-13) / 5.607e-13,
        abs(preamp - 3.497e-14) / 3.497e-14,
    )
    ok = all(e <= 1e-3 for e in errs)
    assert report(
        "noise arithmetic",
        ok,
        f"thermal = {thermal:.4e} A^2 (rel err {errs[0]:.1e}); "
        f"shot(1 mA) = {shot:.4e} A^2 (rel err {errs[1]:.1e}); "
        f"preamp = {preamp:.4e} A^2 (rel err {errs[2]:.1e}); tol 1e-3 each",
    )


def emitted_waist(w0: float, wavelength: float, lens: LensSpec | None) -> float:
    """Waist radius the transmitter emits, from the complex beam parameter.

    Without a lens this is the source waist. With one, q = d1 + i z_r is
    carried through the thin lens, q' = q / (1 - q / f), and the relayed waist
    is sqrt(lambda Im(q') / pi). Independent of `lens_transform`.
    """
    if lens is None:
        return w0
    q = complex(lens.d1, math.pi * w0**2 / wavelength)
    q_out = q / (1.0 - q / lens.f)
    return math.sqrt(wavelength * q_out.imag / math.pi)


def test_trend_reproduction():
    """Directional claims on the default on-axis 1-8 um sweep, in emitted waist.

    The paper claims that energy efficiency rises with the laser beam waist
    and that micro-lenses raise it. Received power at the eye-safe cap grows
    with the waist the transmitter emits, so the claims are checked in that
    waist: w0 for the lens-off branch, the relayed waist w_l for the lens-on
    branch. Pooled over both branches and sorted by emitted waist, sum rate
    and EE must be non-decreasing.

    The lens helps only where it magnifies. Its magnification
    k = f / sqrt((d1 - f)^2 + z_r^2) never exceeds f / z_r(w0), which is below
    1 for every w0 > sqrt(f lambda / pi) whatever d1 is. With the default
    f = 0.127 mm and d1 = 0.133 mm, k = 1 at
    w0 = sqrt(lambda sqrt(f^2 - (d1 - f)^2) / pi) ~ 5.86 um. So lens on must
    beat lens off at every waist with k >= 1 and lose to it at every waist
    with k < 1; the second check keeps the demagnifying range visible.
    """
    t0 = time.perf_counter()
    scene = dataclasses.replace(default_scene(), safety=SAFETY)
    result = run_sweep(scene, SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=8))
    series = {
        mode: [r for r in result.rows if r.lens_mode == mode] for mode in ("off", "on")
    }
    elapsed = time.perf_counter() - t0
    lens = scene.lens_design
    wavelength = scene.aps[0].beam.wavelength

    def emitted(row):
        return emitted_waist(row.waist, wavelength, lens if row.lens_mode == "on" else None)

    def non_decreasing(vals):
        return all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    pooled = sorted(result.rows, key=emitted)
    pairs = list(zip(series["on"], series["off"]))
    magnified = [(on, off) for on, off in pairs if emitted(on) >= on.waist]
    demagnified = [(on, off) for on, off in pairs if emitted(on) < on.waist]

    checks = {
        "sum rate non-decreasing (lens off)": non_decreasing(
            [r.sum_rate for r in series["off"]]
        ),
        "energy efficiency non-decreasing (lens off)": non_decreasing(
            [r.ee for r in series["off"]]
        ),
        "sum rate non-decreasing in emitted waist (both branches pooled)": (
            non_decreasing([r.sum_rate for r in pooled])
        ),
        "energy efficiency non-decreasing in emitted waist (both branches pooled)": (
            non_decreasing([r.ee for r in pooled])
        ),
        f"lens on >= lens off where k >= 1 ({len(magnified)} waists)": bool(magnified)
        and all(on.sum_rate >= off.sum_rate and on.ee >= off.ee for on, off in magnified),
        f"lens on < lens off where k < 1 ({len(demagnified)} waists)": bool(demagnified)
        and all(on.sum_rate < off.sum_rate and on.ee < off.ee for on, off in demagnified),
        f"runtime {elapsed:.1f}s < 60s": elapsed < 60.0,
    }

    for name, passed in checks.items():
        print(f"       {'ok  ' if passed else 'FAIL'} {name}")
    smallest_step = min(b.sum_rate / a.sum_rate - 1.0 for a, b in zip(pooled, pooled[1:]))
    crossover = math.sqrt(wavelength * math.sqrt(lens.f**2 - (lens.d1 - lens.f) ** 2) / math.pi)
    ok = all(checks.values())
    assert report(
        "trend reproduction",
        ok,
        f"{sum(checks.values())}/{len(checks)} sub-checks hold; smallest pooled "
        f"sum-rate step {smallest_step:+.1e} relative; k <= f/z_r, and the lens "
        f"demagnifies above w0 = sqrt(lambda sqrt(f^2 - (d1-f)^2)/pi) = "
        f"{crossover * 1e6:.2f} um",
    )


def test_cli_determinism(tmp_path):
    """Two identical CLI invocations produce byte-identical CSV outputs."""
    config = tmp_path / "scene.ini"
    config.write_text(COMPACT_CONFIG + "\n[users]\nplacement = random\ncount = 3\n",
                      encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "--config", str(config),
                "--waist-start", "1e-6",
                "--waist-end", "1.5e-6",
                "--steps", "3",
                "--lens", "off",
                "--seeds", "0,1",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    identical = all(
        (outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes() for n in names
    )
    ok = identical and len(names) == 3
    assert report(
        "CLI determinism",
        ok,
        f"{len(names)} CSV files byte-identical across two invocations: {identical}",
    )
