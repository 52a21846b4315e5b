import dataclasses

import numpy as np
import pytest

from vcselnet import (
    BeamSpec,
    FUNDAMENTAL_MODE,
    LensSpec,
    LinkReport,
    SafetySpec,
    UserLink,
    beam_radius,
    consumed_power,
    default_scene,
    laguerre,
    load_scene,
    mode_norm_const,
    noise_variance,
    user_rate,
)

# Exposure limit used throughout the tests. The library deliberately ships no
# default for this (it is a regulatory, site-specific number), so the suite
# pins one here.
DEFAULT_MPE = 10.0

# A 1 m x 1 m footprint with the APs pulled inward. Unfocused beam footprints
# overlap at the receive plane here, so randomly placed users always keep a
# full-rank channel. In the default 5 m room the pencil beams leave most
# random draws with an all-zero or rank-deficient channel matrix — a correct
# hard failure, but useless for exercising the statistics path.
COMPACT_CONFIG = f"""\
[room]
width_m = 1.0
length_m = 1.0

[transmitters]
positions_m = (0.25, 0.25, 3.0); (0.25, 0.75, 3.0); (0.75, 0.25, 3.0); (0.75, 0.75, 3.0)

[safety]
mpe_w_per_m2 = {DEFAULT_MPE}
"""

# 8 x 8 ceiling APs at 1 m pitch, one on-axis user under each: 4,096 links.
GRID_CONFIG = (
    "[room]\nwidth_m = 8.0\nlength_m = 8.0\n\n[transmitters]\npositions_m = "
    + "; ".join(f"({x + 0.5}, {y + 0.5}, 3.0)" for x in range(8) for y in range(8))
    + f"\n\n[safety]\nmpe_w_per_m2 = {DEFAULT_MPE}\n"
)


def one_mode(beam, p, l):
    """beam with all its power in the single LG mode (p, l), so that
    beam_intensity on it gives that mode's normalized intensity."""
    return dataclasses.replace(beam, modes=((p, l, 1.0),))


def oracle_mode_intensity(p, l, r, z, beam):
    """Reference LG mode intensity: one mode, its own w(z), x and exp(-x)."""
    r_arr = np.asarray(r, dtype=float)
    w_z = beam_radius(z, beam)
    a = mode_norm_const(p, l, beam.w0)
    x = 2.0 * r_arr**2 / w_z**2
    val = (a**2 * beam.w0**2 / w_z**2) * x**l * laguerre(p, l, x) ** 2 * np.exp(-x)
    if np.ndim(r) == 0:
        return float(val)
    return val


def oracle_beam_intensity(r, z, beam):
    """Reference total intensity: one oracle_mode_intensity per mode, summed in
    mode order. The package's fused pass must reproduce it bit for bit
    wherever it is finite (it is NaN where x**l * L**2 overflows and exp(-x)
    underflows)."""
    total = None
    for p, l, frac in beam.modes:
        if frac == 0.0:
            continue
        term = frac * np.asarray(oracle_mode_intensity(p, l, r, z, beam))
        total = term if total is None else total + term
    if np.ndim(r) == 0:
        return float(total)
    return total


def oracle_link_report(scene, h, precoder, rate_model="shannon"):
    """Reference link budget: one user at a time, its interference from the
    other streams' currents by np.delete and np.sum, and its rate from
    user_rate. link_report must reproduce it bit for bit."""
    received = np.asarray(h.gains) @ precoder.g
    users = []
    for u, user in enumerate(scene.users):
        i_sig = user.responsivity * received[u, u]
        if i_sig > 0.0:
            interference = user.responsivity * np.delete(received[u, :], u)
            noise = noise_variance(i_sig, scene.electrical).total
            sinr = i_sig * i_sig / (noise + float(np.sum(interference**2)))
        else:
            i_sig = max(i_sig, 0.0)
            sinr = 0.0
        rate = user_rate(sinr, scene.electrical, rate_model)
        users.append(UserLink(snr=sinr, rate=rate, photocurrent=i_sig))
    total_rate = sum(link.rate for link in users)
    consumed = consumed_power(scene)
    return LinkReport(
        snr=tuple(link.snr for link in users),
        rate=tuple(link.rate for link in users),
        photocurrent=tuple(link.photocurrent for link in users),
        sum_rate=total_rate,
        consumed_power=consumed,
        energy_efficiency=total_rate / consumed,
    )


@pytest.fixture
def fundamental_beam():
    """Single-mode 5 um / 850 nm beam."""
    return BeamSpec(w0=5e-6, wavelength=850e-9, modes=FUNDAMENTAL_MODE)


@pytest.fixture
def multimode_beam():
    """Default eight-mode beam at 5 um / 850 nm."""
    return BeamSpec(w0=5e-6, wavelength=850e-9)


@pytest.fixture
def table_lens():
    """Micro-lens at the reference focal length and stand-off."""
    return LensSpec(f=0.127e-3, d1=0.133e-3)


@pytest.fixture
def safety():
    return SafetySpec(mpe=DEFAULT_MPE)


@pytest.fixture
def scene_with_mpe():
    """Default four-AP scene with the exposure limit set."""
    scene = default_scene()
    return dataclasses.replace(scene, safety=SafetySpec(mpe=DEFAULT_MPE))


@pytest.fixture
def compact_scene():
    """Small-footprint scene where random placement is always zero-forceable."""
    return load_scene(COMPACT_CONFIG)


@pytest.fixture
def svd_calls(monkeypatch):
    """Every matrix passed to np.linalg.svd while the test runs, in order."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def inv_calls(monkeypatch):
    """Every matrix passed to np.linalg.inv while the test runs, in order."""
    calls = []
    inv = np.linalg.inv

    def counting_inv(a, *args, **kwargs):
        calls.append(np.array(a))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls
