import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import e as ELEMENTARY_CHARGE
from scipy.constants import k as BOLTZMANN_CONSTANT
from scipy.stats import norm

from vcselnet import (
    ElectricalSpec,
    Precoder,
    SweepSpec,
    UserLink,
    UserTerminal,
    build_channel_matrix,
    consumed_power,
    default_scene,
    link_report,
    load_scene,
    max_safe_power,
    noise_variance,
    q_function,
    run_sweep,
    user_rate,
    zf_precoder,
)
from vcselnet.channel import ChannelMatrix
from vcselnet.errors import DomainError

from conftest import DEFAULT_MPE, GRID_CONFIG, oracle_link_report

# Frozen noise values for the default electrical parameters (B_e = 1.75 GHz,
# R_l = 50 ohm, NF = 5 dB, T = 300 K, RIN = -155 dB/Hz, 4.47 pA/sqrt(Hz)),
# from the closed forms evaluated with scipy.constants:
#   thermal = 4 k T 10^(NF/10) B / R, shot(1 mA) = 2 q I B, preamp = N B.
THERMAL_A2 = 1.8337181054782016e-12
SHOT_1MA_A2 = 5.607618219e-13
PREAMP_A2 = 3.4966575000000006e-14


def oracle_sinr(gains, g, u, responsivity, elec):
    """Post-precoding SINR of user u, from scratch: the received currents
    R (H G)[u, n] by exact sums, the noise from its closed forms with
    scipy.constants, and the other streams as interference power."""
    n_aps, n_users = len(g), len(g[0])
    current = [
        responsivity * math.fsum(gains[u][a] * g[a][n] for a in range(n_aps))
        for n in range(n_users)
    ]
    i_sig = current[u]
    if i_sig <= 0.0:
        return 0.0
    be = elec.rx_bandwidth
    noise = (
        2.0 * ELEMENTARY_CHARGE * i_sig * be
        + 4.0 * BOLTZMANN_CONSTANT * elec.temperature * 10.0 ** (elec.noise_figure_db / 10.0)
        * be / elec.load_resistance
        + 10.0 ** (elec.rin_db_per_hz / 10.0) * be * i_sig**2
        + elec.preamp_noise_density * be
    )
    interference = math.fsum(c**2 for n, c in enumerate(current) if n != u)
    return i_sig**2 / (noise + interference)


def identity_link(sign=1.0):
    """Four interference-free links: channel I, precoder sign * I (beta 1)."""
    h = ChannelMatrix(
        gains=np.eye(4), distances=np.full((4, 4), 2.0), offsets=np.zeros((4, 4))
    )
    g = sign * np.eye(4)
    return h, Precoder(g=g, beta=1.0, g0=g)


class TestNoise:
    def test_thermal_frozen(self):
        nb = noise_variance(0.0, ElectricalSpec())
        assert nb.thermal == pytest.approx(THERMAL_A2, rel=1e-12)
        # Independent recomputation from physical constants.
        expected = 4.0 * BOLTZMANN_CONSTANT * 300.0 * 10.0 ** 0.5 * 1.75e9 / 50.0
        assert nb.thermal == pytest.approx(expected, rel=1e-12)

    def test_shot_frozen(self):
        nb = noise_variance(1e-3, ElectricalSpec())
        assert nb.shot == pytest.approx(SHOT_1MA_A2, rel=1e-12)
        assert nb.shot == pytest.approx(
            2.0 * ELEMENTARY_CHARGE * 1e-3 * 1.75e9, rel=1e-12
        )

    def test_preamp_frozen(self):
        nb = noise_variance(0.0, ElectricalSpec())
        assert nb.preamp == pytest.approx(PREAMP_A2, rel=1e-12)

    def test_rin_scales_with_current_squared(self):
        elec = ElectricalSpec()
        i = 3.6e-3
        nb = noise_variance(i, elec)
        assert nb.rin == pytest.approx(10.0 ** (-15.5) * 1.75e9 * i**2, rel=1e-12)
        assert noise_variance(2.0 * i, elec).rin == pytest.approx(4.0 * nb.rin, rel=1e-12)

    def test_total_is_exact_sum(self):
        nb = noise_variance(2.3e-3, ElectricalSpec())
        assert nb.total == nb.shot + nb.thermal + nb.rin + nb.preamp

    def test_dark_receiver_has_no_signal_noise(self):
        nb = noise_variance(0.0, ElectricalSpec())
        assert nb.shot == 0.0
        assert nb.rin == 0.0
        assert nb.total == nb.thermal + nb.preamp

    def test_rejects_negative_current(self):
        with pytest.raises(DomainError):
            noise_variance(-1e-6, ElectricalSpec())


class TestQFunction:
    def test_matches_gaussian_tail(self):
        for x in (0.0, 0.5, 1.0, 3.0902, 6.0):
            assert q_function(x) == pytest.approx(norm.sf(x), rel=1e-12)

    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5


class TestRates:
    def test_shannon(self):
        elec = ElectricalSpec()
        assert user_rate(0.0, elec) == 0.0
        assert user_rate(1e4, elec) == pytest.approx(
            1.75e9 * math.log2(1.0 + 1e4), rel=1e-12
        )

    def test_ook_threshold(self):
        elec = ElectricalSpec()  # fec_limit = 1e-3
        edge = norm.isf(1e-3)  # Q(edge) = 1e-3 exactly
        assert user_rate((edge * 1.001) ** 2, elec, model="ook") == 1.75e9
        assert user_rate((edge * 0.999) ** 2, elec, model="ook") == 0.0

    def test_ook_respects_custom_fec_limit(self):
        loose = ElectricalSpec(fec_limit=0.1)
        edge = norm.isf(0.1)
        assert user_rate((edge * 1.01) ** 2, loose, model="ook") == 1.75e9

    def test_rejects_bad_inputs(self):
        elec = ElectricalSpec()
        with pytest.raises(DomainError):
            user_rate(-0.1, elec)
        with pytest.raises(DomainError):
            user_rate(1.0, elec, model="waterfilling")


class TestConsumptionAndEfficiency:
    def test_default_consumption_frozen(self):
        # 4 APs x 25 VCSELs x 9 mA x 0.9 V = 0.81 W.
        assert consumed_power(default_scene()) == pytest.approx(0.81, rel=1e-12)

    def test_override_consumption(self):
        scene = default_scene()
        scene = dataclasses.replace(
            scene,
            electrical=dataclasses.replace(
                scene.electrical, per_vcsel_consumption=2e-3
            ),
        )
        assert consumed_power(scene) == pytest.approx(0.2, rel=1e-12)

    def test_energy_efficiency_frozen(self):
        # OOK over four 0.4 A interference-free links: every user gets the
        # full B_e, so EE = 4 x 1.75e9 bit/s / 0.81 W.
        report = link_report(default_scene(), *identity_link(), rate_model="ook")
        assert [link.rate for link in report.per_user] == [1.75e9] * 4
        assert report.energy_efficiency == pytest.approx(8.641975308641975e9, rel=1e-12)

    def test_energy_efficiency_sums_rates(self):
        scene = default_scene()
        scene = dataclasses.replace(
            scene,
            electrical=dataclasses.replace(scene.electrical, per_vcsel_consumption=2e-3),
        )
        report = link_report(scene, *identity_link())
        assert report.energy_efficiency == pytest.approx(
            math.fsum(link.rate for link in report.per_user) / 0.2, rel=1e-12
        )


class TestUserSinr:
    @pytest.fixture
    def evaluated(self, scene_with_mpe):
        scene = scene_with_mpe
        caps = np.array(
            [
                ap.array_n**2 * max_safe_power(ap.beam, scene.safety, ap.lens).p_max
                for ap in scene.aps
            ]
        )
        h = build_channel_matrix(scene)
        pre = zf_precoder(h, caps)
        return scene, h, pre

    def test_matches_manual_computation(self, evaluated):
        scene, h, pre = evaluated
        report = link_report(scene, h, pre)
        for u, (user, link) in enumerate(zip(scene.users, report.per_user)):
            expected = oracle_sinr(h.gains, pre.g, u, user.responsivity, scene.electrical)
            assert link.snr == pytest.approx(expected, rel=1e-12)

    def test_desired_photocurrent_tracks_beta(self, evaluated):
        scene, h, pre = evaluated
        report = link_report(scene, h, pre)
        for link in report.per_user:
            assert link.photocurrent == pytest.approx(0.4 * pre.beta, rel=1e-9)

    def test_zero_signal_gives_zero_sinr(self, scene_with_mpe):
        # Sign-flipped precoder: every desired current is negative.
        report = link_report(scene_with_mpe, *identity_link(sign=-1.0))
        for link in report.per_user:
            assert (link.snr, link.rate, link.photocurrent) == (0.0, 0.0, 0.0)


class TestLinkReport:
    def test_aggregates_consistently(self, scene_with_mpe):
        scene = scene_with_mpe
        caps = np.array(
            [
                ap.array_n**2 * max_safe_power(ap.beam, scene.safety, ap.lens).p_max
                for ap in scene.aps
            ]
        )
        h = build_channel_matrix(scene)
        pre = zf_precoder(h, caps)
        report = link_report(scene, h, pre)
        assert len(report.per_user) == 4
        assert report.sum_rate == pytest.approx(
            sum(link.rate for link in report.per_user), rel=1e-15
        )
        assert report.consumed_power == pytest.approx(0.81, rel=1e-12)
        assert report.energy_efficiency == pytest.approx(
            report.sum_rate / 0.81, rel=1e-12
        )
        for u, link in enumerate(report.per_user):
            expected = oracle_sinr(h.gains, pre.g, u, scene.users[u].responsivity,
                                   scene.electrical)
            assert link.snr == pytest.approx(expected, rel=1e-12)
            assert link.rate == pytest.approx(
                user_rate(link.snr, scene.electrical), rel=1e-12
            )

    def test_ook_model_flows_through(self, scene_with_mpe):
        scene = scene_with_mpe
        h = build_channel_matrix(scene)
        pre = zf_precoder(h, 1e-2)
        report = link_report(scene, h, pre, rate_model="ook")
        for link in report.per_user:
            assert link.rate in (0.0, scene.electrical.rx_bandwidth)


@st.composite
def link_budgets(draw):
    """A scene stand-in, channel and precoder for link_report.

    One to twelve users with mixed responsivities, at least as many APs:
    from ten users on, numpy sums a row's interference pairwise. Gains
    include exact zeros; precoder weights have either sign and a magnitude
    drawn per draw, so SINRs range from noise- to interference-limited and
    some desired currents are negative. A user may have an all-zero precoder
    column, so that its signal is exactly zero.
    """
    n_users = draw(st.integers(1, 12))
    n_aps = draw(st.integers(n_users, 14))
    gain = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    gains = np.array([[draw(gain) for _ in range(n_aps)] for _ in range(n_users)])
    scale = 10.0 ** draw(st.integers(-7, 0))
    g = scale * np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(n_users)]
                          for _ in range(n_aps)])
    for u in range(n_users):
        if draw(st.booleans()):
            g[:, u] = 0.0
    users = tuple(
        UserTerminal(position=(0.0, 0.0), responsivity=draw(st.sampled_from([0.1, 0.4, 0.55, 1.2])))
        for _ in range(n_users)
    )
    scene = SimpleNamespace(users=users, aps=default_scene().aps, electrical=ElectricalSpec())
    h = ChannelMatrix(gains=gains, distances=np.ones_like(gains), offsets=np.zeros_like(gains))
    return scene, h, Precoder(g=g, beta=1.0, g0=g)


def report_bits(report):
    """Every float of a report as hex: its per-user snr, rate and
    photocurrent arrays and its totals. Checks on the way that the per_user
    view holds the same values, user by user, field by field."""
    view = [(link.snr, link.rate, link.photocurrent) for link in report.per_user]
    assert all(type(link) is UserLink for link in report.per_user)
    arrays = list(zip(report.snr, report.rate, report.photocurrent))
    assert [[float(v).hex() for v in user] for user in view] == [
        [float(v).hex() for v in user] for user in arrays]
    values = [*report.snr, *report.rate, *report.photocurrent]
    values += [report.sum_rate, report.consumed_power, report.energy_efficiency]
    return [float(v).hex() for v in values]


@settings(max_examples=120, deadline=None)
@given(case=link_budgets(), rate_model=st.sampled_from(["shannon", "ook"]))
def test_link_report_matches_per_user_oracle_bit_for_bit(case, rate_model):
    scene, h, precoder = case
    got = link_report(scene, h, precoder, rate_model)
    want = oracle_link_report(scene, h, precoder, rate_model)
    n = len(scene.users)
    assert len(got.snr) == len(got.rate) == len(got.photocurrent) == len(got.per_user) == n
    assert report_bits(got) == report_bits(want)


def test_an_unknown_rate_model_is_refused():
    with pytest.raises(DomainError, match="unknown rate model"):
        link_report(default_scene(), *identity_link(), rate_model="pam")


def test_a_sweep_builds_no_user_link(scene_with_mpe, monkeypatch):
    """run_sweep reads each report's arrays; a UserLink is built only when
    per_user is read, one per user on each read."""
    built = []
    init = UserLink.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UserLink, "__init__", counting_init)
    sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    artifacts = run_sweep(scene_with_mpe, sweep, collect_artifacts=True).artifacts
    assert len(artifacts) == 4
    assert built == []
    h, precoder = artifacts[0, "off"]
    report = link_report(scene_with_mpe, h, precoder)
    assert built == []
    assert len(report.per_user) == len(built) == len(scene_with_mpe.users)


def test_signal_powers_are_squared_as_noise_variance_squares_them():
    """Users whose photocurrent squares differently by Python's ** (libm's
    pow) and by x * x, which happens for about 1 value in 1,000 here, next
    to eight that square alike: link_report squares each as noise_variance
    does, by x * x, which rounds correctly on every host, and stays
    bit-identical to the per-user oracle."""
    values = np.random.default_rng(0).uniform(1e-4, 1e-3, 20_000)
    apart = np.square(values) != np.array([v**2 for v in values.tolist()])
    currents = np.concatenate([values[apart][:8], values[:8]])
    n = currents.size
    users = tuple(UserTerminal(position=(0.0, 0.0), responsivity=1.0) for _ in range(n))
    scene = SimpleNamespace(users=users, aps=default_scene().aps, electrical=ElectricalSpec())
    h = ChannelMatrix(gains=np.eye(n), distances=np.ones((n, n)), offsets=np.zeros((n, n)))
    g = np.diag(currents)
    precoder = Precoder(g=g, beta=1.0, g0=g)
    got = link_report(scene, h, precoder)
    assert [link.photocurrent for link in got.per_user] == currents.tolist()
    elec = scene.electrical
    rin_coef = 10.0 ** (elec.rin_db_per_hz / 10.0) * elec.rx_bandwidth
    assert [noise_variance(i, elec).rin for i in currents.tolist()] == [
        rin_coef * (i * i) for i in currents.tolist()
    ]
    assert report_bits(got) == report_bits(oracle_link_report(scene, h, precoder))


@pytest.mark.parametrize("rate_model", ["shannon", "ook"])
def test_link_report_matches_the_oracle_for_the_grids_64_users(rate_model):
    """The 8 x 8 grid's four sweep points, 64 users each, bit for bit: past
    the property test's twelve users, where every row's interference sums
    63 streams pairwise."""
    scene = load_scene(GRID_CONFIG)
    sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    artifacts = run_sweep(scene, sweep, collect_artifacts=True).artifacts
    assert len(artifacts) == 4
    for h, precoder in artifacts.values():
        got = link_report(scene, h, precoder, rate_model)
        assert len(got.per_user) == 64
        assert report_bits(got) == report_bits(oracle_link_report(scene, h, precoder, rate_model))
