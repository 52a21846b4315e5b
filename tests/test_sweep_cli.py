import csv
import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcselnet.sweep
from vcselnet import channel
from vcselnet import (
    FUNDAMENTAL_MODE,
    AccessPoint,
    BeamSpec,
    Scene,
    SweepResult,
    SweepSpec,
    UserTerminal,
    build_channel_matrix,
    emit_outputs,
    link_report,
    load_scene,
    max_safe_power,
    place_users,
    place_users_on_axis,
    run_sweep,
    zf_precoder,
)
from vcselnet.beam_optics import mode_constants, mode_sum
from vcselnet.channel import link_geometry
from vcselnet.cli import main
from vcselnet.errors import (ConfigError, DomainError, SweepPointError, VcselNetError,
                             exit_code_for)

from conftest import COMPACT_CONFIG, DEFAULT_MPE, GRID_CONFIG

# Nodes per segment row in the quadrature's first round: orders 16 and 32 side
# by side, one row for each radial segment a link has (the circle where rho < a,
# the arc where it has length).
FIRST_ROUND_NODES = 16 + 32

CONFIG_TEXT = f"""
[safety]
mpe_w_per_m2 = {DEFAULT_MPE}
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def compact_config_file(tmp_path):
    path = tmp_path / "compact.ini"
    path.write_text(COMPACT_CONFIG, encoding="utf-8")
    return path


def configured(scene, waist, lens_mode):
    """The scene a sweep point evaluates, rebuilt AP by AP with public calls."""
    aps = tuple(
        dataclasses.replace(
            ap,
            beam=dataclasses.replace(ap.beam, w0=waist),
            lens=scene.lens_design if lens_mode == "on" else None,
        )
        for ap in scene.aps
    )
    return dataclasses.replace(scene, aps=aps)


def manual_point(scene, waist, lens_mode, seed=None, rate_model="shannon"):
    """Re-evaluate one sweep point with only public API calls.

    With a seed, the scene's users are redrawn as a random replicate.
    """
    scn = configured(scene, waist, lens_mode)
    if seed is not None:
        scn = place_users(scn, len(scene.users), seed)
    caps = np.array(
        [
            ap.array_n**2 * max_safe_power(ap.beam, scn.safety, ap.lens).p_max
            for ap in scn.aps
        ]
    )
    h = build_channel_matrix(scn)
    pre = zf_precoder(h, caps)
    return link_report(scn, h, pre, rate_model)


class TestSweepSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(waist_start=0.0),
            dict(waist_start=9e-6, waist_end=8e-6),
            dict(steps=1),
            dict(lens_modes=()),
            dict(lens_modes=("maybe",)),
            dict(lens_modes=("on", "on")),
            dict(seeds=()),
            dict(seeds=(-1,)),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(waist_end=math.inf), dict(waist_start=math.nan),
                                        dict(waist_end=math.nan), dict(waist_start=-math.inf)])
    def test_rejects_non_finite_waists(self, kwargs):
        with pytest.raises(ConfigError, match="both finite"):
            SweepSpec(**kwargs)


class TestRunSweep:
    def test_requires_exposure_limit(self):
        from vcselnet import default_scene

        with pytest.raises(ConfigError, match="mpe_w_per_m2"):
            run_sweep(default_scene(), SweepSpec(steps=2))

    def test_rejects_a_fixed_transmit_power(self, scene_with_mpe):
        # A sweep transmits at the eye-safe cap; a fixed power would be ignored.
        aps = list(scene_with_mpe.aps)
        aps[1] = dataclasses.replace(aps[1], per_vcsel_power=1e-5)
        scene = dataclasses.replace(scene_with_mpe, aps=tuple(aps))
        with pytest.raises(ConfigError, match=r"access point 1 .*per_vcsel_power_w"):
            run_sweep(scene, SweepSpec(steps=2))

    def test_unset_seeds_mean_the_scene_seed(self, compact_scene):
        scene = place_users(compact_scene, 3, seed=9)
        sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2, lens_modes=("off",))
        result = run_sweep(scene, sweep)
        assert "placement=random" in result.metadata
        assert "users=3 seeds=9 " in result.metadata
        explicit = run_sweep(scene, dataclasses.replace(sweep, seeds=(9,)))
        assert result == explicit
        for row in result.rows:
            report = manual_point(scene, row.waist, "off")
            assert row.sum_rate == report.sum_rate
            assert row.ee == report.energy_efficiency

    def test_explicit_users_are_evaluated(self):
        scene = load_scene(
            CONFIG_TEXT + "\n[users]\npositions_m = (2.8, 3.1); (1.2, 2.9)\n"
        )
        assert scene.placement == "explicit"
        result = run_sweep(scene, SweepSpec(waist_start=2e-6, waist_end=6e-6, steps=2))
        assert result.metadata.startswith("schema=v1 placement=explicit rate_model=shannon "
                                          "users=2 seeds=0 ")
        for row in result.rows:
            report = manual_point(scene, row.waist, row.lens_mode)
            assert len(report.per_user) == 2
            assert row.sum_rate == report.sum_rate
            assert row.ee == report.energy_efficiency

    def test_row_grid_and_ordering(self, scene_with_mpe):
        sweep = SweepSpec(waist_start=2e-6, waist_end=6e-6, steps=3)
        result = run_sweep(scene_with_mpe, sweep)
        assert len(result.rows) == 6
        waists = np.linspace(2e-6, 6e-6, 3)
        expected = [(w, m) for w in waists for m in ("off", "on")]
        assert [(r.waist, r.lens_mode) for r in result.rows] == [
            (pytest.approx(w), m) for w, m in expected
        ]

    def test_on_axis_values_match_manual_evaluation(self, scene_with_mpe):
        # At 1 and 8 um lens on, the mean and std of three copies of one sum
        # rate are not exact, so these points show a copied evaluation.
        one = run_sweep(scene_with_mpe, SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2))
        sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2, seeds=(0, 1, 2))
        result = run_sweep(scene_with_mpe, sweep)
        for row, single in zip(result.rows, one.rows, strict=True):
            # Placement is seed-independent: the single-seed row, bit for bit.
            assert repr(row) == repr(dataclasses.replace(single, seed_count=3))
            assert row.seed_count == 3
            assert row.sum_rate_std == 0.0
            assert row.ee_std == 0.0
            report = manual_point(scene_with_mpe, row.waist, row.lens_mode)
            assert row.sum_rate == pytest.approx(report.sum_rate, rel=1e-12)
            assert row.ee == pytest.approx(report.energy_efficiency, rel=1e-12)
            min_snr = min(link.snr for link in report.per_user)
            assert row.min_user_snr_db == pytest.approx(
                10.0 * math.log10(min_snr), rel=1e-12
            )

    def test_p_max_column(self, scene_with_mpe):
        sweep = SweepSpec(waist_start=2e-6, waist_end=8e-6, steps=2)
        result = run_sweep(scene_with_mpe, sweep)
        for row in result.rows:
            ap = scene_with_mpe.aps[0]
            beam = dataclasses.replace(ap.beam, w0=row.waist)
            lens = scene_with_mpe.lens_design if row.lens_mode == "on" else None
            expected = max_safe_power(beam, scene_with_mpe.safety, lens).p_max
            assert row.p_max == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("placement", ["on-axis", "random"])
    @pytest.mark.parametrize("sources", [1, 2], ids=["one-source", "two-sources"])
    def test_one_safety_cap_per_source_per_point(
        self, compact_scene, monkeypatch, placement, sources
    ):
        scene = compact_scene
        if sources == 2:
            # A second source, with its own cap: the first two APs emit at 940 nm.
            aps = tuple(
                dataclasses.replace(ap, beam=dataclasses.replace(ap.beam, wavelength=940e-9))
                if i < 2 else ap
                for i, ap in enumerate(scene.aps)
            )
            scene = dataclasses.replace(scene, aps=aps)
        calls, precoder_caps = [], []

        def counting(*args, **kwargs):
            calls.append(args)
            return max_safe_power(*args, **kwargs)

        def recording(h, caps):
            precoder_caps.append(caps)
            return zf_precoder(h, caps)

        monkeypatch.setattr(vcselnet.sweep, "max_safe_power", counting)
        monkeypatch.setattr(vcselnet.sweep, "zf_precoder", recording)
        if placement == "random":
            scene = place_users(scene, 3, seed=0)
        else:
            scene = place_users_on_axis(scene, 3)
        sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2,
                          lens_modes=("off",), seeds=(0, 1))
        result = run_sweep(scene, sweep)
        assert len(calls) == sources * sweep.steps
        # Every AP still gets the cap of its own source.
        calls_per_point = len(precoder_caps) // sweep.steps
        for point, row in enumerate(result.rows):
            beams = {args[0] for args in calls[point * sources:(point + 1) * sources]}
            assert len(beams) == sources
            vcsel_caps = [
                max_safe_power(dataclasses.replace(ap.beam, w0=row.waist), scene.safety).p_max
                for ap in scene.aps
            ]
            assert row.p_max == min(vcsel_caps)
            expected = [ap.array_n**2 * cap for ap, cap in zip(scene.aps, vcsel_caps)]
            for caps in precoder_caps[point * calls_per_point:(point + 1) * calls_per_point]:
                assert caps.tolist() == expected
            assert len(set(vcsel_caps)) == sources

    def test_beams_that_differ_only_in_waist_are_one_source(self, compact_scene, monkeypatch):
        # Every point sets one waist, so these APs share a beam and a cap there.
        aps = tuple(
            dataclasses.replace(ap, beam=dataclasses.replace(ap.beam, w0=3e-6)) if i < 2 else ap
            for i, ap in enumerate(compact_scene.aps)
        )
        calls = []

        def counting(*args):
            calls.append(args)
            return max_safe_power(*args)

        monkeypatch.setattr(vcselnet.sweep, "max_safe_power", counting)
        scene = place_users_on_axis(dataclasses.replace(compact_scene, aps=aps), 3)
        result = run_sweep(scene, SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2))
        assert len(calls) == len(result.rows)

    def test_random_placement_statistics(self, compact_scene):
        # The compact room keeps every random draw zero-forceable (lens off);
        # focused beams leave far users with an underflowed-to-zero or
        # rank-deficient channel, which is a hard failure, not a statistic.
        seeds = (0, 1, 2)
        sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2,
                          lens_modes=("off",), seeds=seeds)
        scene = place_users(compact_scene, 3, seed=0)
        result = run_sweep(scene, sweep)
        row = result.rows[0]
        reports = [manual_point(scene, row.waist, "off", seed=s) for s in seeds]
        rates = [r.sum_rate for r in reports]
        ees = [r.energy_efficiency for r in reports]
        assert row.sum_rate == pytest.approx(np.mean(rates), rel=1e-12)
        assert row.sum_rate_std == pytest.approx(np.std(rates), rel=1e-12)
        assert row.ee == pytest.approx(np.mean(ees), rel=1e-12)
        assert row.ee_std == pytest.approx(np.std(ees), rel=1e-12)
        assert row.sum_rate_std > 0.0

    def test_artifacts_collected_on_request(self, scene_with_mpe):
        sweep = SweepSpec(waist_start=4e-6, waist_end=5e-6, steps=2)
        bare = run_sweep(scene_with_mpe, sweep)
        assert bare.artifacts == {}
        rich = run_sweep(scene_with_mpe, sweep, collect_artifacts=True)
        assert set(rich.artifacts) == {(0, "off"), (0, "on"), (1, "off"), (1, "on")}
        h, pre = rich.artifacts[(0, "on")]
        assert h.gains.shape == (4, 4)
        assert pre.g.shape == (4, 4)

    def test_failures_carry_sweep_coordinates(self, scene_with_mpe):
        # Seed 0 puts users 2 and 3 of the default room on near-parallel rows.
        with pytest.raises(SweepPointError) as exc_info:
            run_sweep(place_users(scene_with_mpe, 4, seed=0), SweepSpec(steps=2))
        err = exc_info.value
        assert "waist=" in str(err) and "lens=" in str(err) and "seed=0" in str(err)
        assert exit_code_for(err) == 4  # unwraps to the SingularChannelError


class TestEmitOutputs:
    def test_file_set_and_schema(self, scene_with_mpe, tmp_path):
        sweep = SweepSpec(waist_start=2e-6, waist_end=4e-6, steps=2)
        result = run_sweep(scene_with_mpe, sweep)
        written = emit_outputs(result, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "fig_energy_efficiency.lens_off.csv",
            "fig_energy_efficiency.lens_on.csv",
            "fig_sum_rate.lens_off.csv",
            "fig_sum_rate.lens_on.csv",
            "results.csv",
        ]
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# schema=v1 ")
        assert "placement=on-axis" in lines[0]
        assert lines[1] == (
            "waist_m,lens,seed_count,sum_rate_bps,sum_rate_std,ee_bpj,ee_std,"
            "min_user_snr_db,p_max_w"
        )
        assert len(lines) == 2 + 4  # comment + header + steps * modes
        first = lines[2].split(",")
        assert float(first[0]) == 2e-6
        assert first[1] == "off"
        assert int(first[2]) == 1

    def test_rows_round_trip_through_csv(self, scene_with_mpe, tmp_path):
        sweep = SweepSpec(waist_start=2e-6, waist_end=4e-6, steps=2,
                          lens_modes=("off",))
        result = run_sweep(scene_with_mpe, sweep)
        emit_outputs(result, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        for row, line in zip(result.rows, lines[2:]):
            fields = line.split(",")
            assert float(fields[0]) == row.waist
            assert float(fields[3]) == row.sum_rate
            assert float(fields[5]) == row.ee
            assert float(fields[8]) == row.p_max

    def test_single_mode_writes_only_its_figures(self, scene_with_mpe, tmp_path):
        sweep = SweepSpec(waist_start=2e-6, waist_end=4e-6, steps=2,
                          lens_modes=("on",))
        result = run_sweep(scene_with_mpe, sweep)
        written = emit_outputs(result, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "fig_energy_efficiency.lens_on.csv",
            "fig_sum_rate.lens_on.csv",
            "results.csv",
        ]

    def test_figure_files_carry_the_series(self, scene_with_mpe, tmp_path):
        sweep = SweepSpec(waist_start=2e-6, waist_end=4e-6, steps=3)
        result = run_sweep(scene_with_mpe, sweep)
        emit_outputs(result, tmp_path)
        lines = (tmp_path / "fig_sum_rate.lens_on.csv").read_text().splitlines()
        assert lines[1] == "waist_m,sum_rate_bps"
        rows = [r for r in result.rows if r.lens_mode == "on"]
        assert len(lines) == 2 + len(rows)
        for row, line in zip(rows, lines[2:]):
            w, v = line.split(",")
            assert float(w) == row.waist
            assert float(v) == row.sum_rate

    def test_refuses_empty_results(self, tmp_path):
        empty = SweepResult(rows=(), metadata="schema=v1", artifacts={})
        with pytest.raises(DomainError):
            emit_outputs(empty, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_runs(self, compact_scene, tmp_path):
        sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2,
                          lens_modes=("off",), seeds=(0, 1))
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_sweep(place_users(compact_scene, 3, seed=0), sweep)
            emit_outputs(result, out)
            dirs.append(out)
        for csv in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / csv).read_bytes() == (dirs[1] / csv).read_bytes()


def test_grid_sweep_bytes_are_pinned(tmp_path):
    """The 8 x 8 grid at 1 and 8 um, lens off and on, byte for byte.

    Between them the four channels hold every kind of link: at 1 um lens
    off 8 of the 34 distinct offsets are integrated and 1,596 gains are
    nonzero, down to 7e-27; the other three channels are diagonal, their
    4,032 off-diagonal links +0.0, almost all of them never integrated. The
    digests are those of integrating every link, flooring each gain below
    1e-30 to +0.0, and of the per-user SINR loop
    (conftest.oracle_link_report): skipping links past the beam's tail
    threshold and exact zeros, and summing interference in one pass, leave
    every byte as it is. Of results.csv's four rows only (0, off) couples
    users; its 64 x 64 channel (condition number ~10) is inverted by one LU
    factorization, which moved that row by at most 8.0e-16 relative from
    the SVD's. The three diagonal channels are inverted entry by entry,
    which gives the bytes the SVD gave them. Another LAPACK build may round
    that LU inverse differently, and then the digest must be taken again
    from code that predates any change under test.
    """
    sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    result = run_sweep(load_scene(GRID_CONFIG), sweep, collect_artifacts=True)
    emit_outputs(result, tmp_path)
    gains = {key: hashlib.sha256(h.gains.tobytes()).hexdigest()
             for key, (h, _) in result.artifacts.items()}
    assert gains == {
        (0, "off"): "038ee49491e9e2ad7c6e6dda0b2c9a90b4097bad5b4b93067b7099158058b445",
        (0, "on"): "eed359c204b3502dffe978ff72bb3cad53f7bafd2c51cb9ae675055176bfb168",
        (1, "off"): "e5418c5d3249b1f554f637837d683350ec411e12e3f839e8bb797f6773b5035c",
        (1, "on"): "7a2d039328a9a97cb5f61a6ef2cade2b78b3b2b264dfa0d0764a82183c163eab",
    }
    results = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert results == "b921c7be58fed81410ffe487cadc371031d9ccf7cfe340a369a2cef3e801af03"


def test_grid_sweep_factorizes_only_the_coupled_point(svd_calls, inv_calls):
    """Of the pinned grid's four channels only 1 um lens off couples users.
    Its square channel passes the precoder's condition screen, so it is
    inverted by one LU factorization; the other three are diagonal and are
    inverted entry by entry. No point takes an SVD."""
    sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    result = run_sweep(load_scene(GRID_CONFIG), sweep, collect_artifacts=True)
    assert set(result.artifacts) == {(0, "off"), (0, "on"), (1, "off"), (1, "on")}
    assert svd_calls == []
    assert len(inv_calls) == 1
    assert np.array_equal(inv_calls[0], result.artifacts[(0, "off")][0].gains)


# Three random users in the compact room, three seeds, lens off, both dumps.
COMPACT_RANDOM_ARGS = ("--seeds", "0,1,2", "--lens", "off", "--waist-start", "1e-6",
                       "--waist-end", "1.5e-6", "--steps", "3",
                       "--dump-channel", "--dump-precoder")


def test_compact_random_sweep_bytes_are_pinned(tmp_path, capsys):
    """Every file of a three-seed random sweep, byte for byte.

    The digests are those of placing every seed's users and building its
    link geometry again at every point: doing both once per seed leaves
    every byte as it is. The precoder and results files also pass through
    the SVD: three users on four APs are not square (see
    test_grid_sweep_bytes_are_pinned).
    """
    config = tmp_path / "random.ini"
    config.write_text(COMPACT_CONFIG + "\n[users]\nplacement = random\ncount = 3\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), *COMPACT_RANDOM_ARGS]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "channel_w00_off.csv": "3277f5ef88989ee344b0782406af3fc8bb9c13514de2cbbd540b6662a7ae1980",
        "channel_w01_off.csv": "5419bf40b58a11a9887b3559c9499d4bd2ccaa68e8058a7ecca4ef06b6fcc36d",
        "channel_w02_off.csv": "c1f9c9e41a3b1b8f43d647d7010000971df59bf8e9b6332d1a22cec39b9567df",
        "fig_energy_efficiency.lens_off.csv":
            "a611c7d0fe752e1963e501753b92710a729f1df9af779515070687f6a86c76f8",
        "fig_sum_rate.lens_off.csv":
            "2090e8b32921d81dbce506c69dbc553e8b6464b32d2b40e2c86c4c8fac38504f",
        "precoder_w00_off.csv": "e9c936e59f40089a6eeb7d1f380c80ccf1062e836dae2d4cadff6b4f8d2987ba",
        "precoder_w01_off.csv": "77ceaf200d4609571408f4154182d72fe50cd14355b15417450973be2b063ba4",
        "precoder_w02_off.csv": "07ef698d00dba614f50a90f1d8f96e711ae246d34e85f64d060b1834a55f0732",
        "results.csv": "3fb5203ab8a037f861263712777440dde2f63f86a470ddbfb1072942748212a9",
    }


@st.composite
def sweep_cases(draw):
    """A small scene and a sweep over it.

    APs draw from four beams: 850 and 940 nm, a 3 um beam that differs
    from the first only in w0 (one source at every point), and a TEM00
    beam. Their own lens states differ, so a sweep's batch plan can be finer
    than a point's sources. Array sizes and pitches differ per AP, so a
    point that reset either would not match its rebuilt scene. Scene pins
    every AP to the ceiling, so AP heights vary between scenes. Users are explicit, with mixed apertures
    and FOVs, or one or two randomly placed users replicated over up to three
    seeds.
    """
    base = load_scene(COMPACT_CONFIG)
    height = draw(st.sampled_from([2.5, 3.0]))
    room = dataclasses.replace(base.room, height=height,
                               rx_plane_height=draw(st.sampled_from([0.8, 1.0])))
    beams = (BeamSpec(5e-6, 850e-9), BeamSpec(5e-6, 940e-9), BeamSpec(3e-6, 850e-9),
             BeamSpec(5e-6, 850e-9, FUNDAMENTAL_MODE))
    # Distinct positions, so that most points are zero-forceable.
    spots = st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])] * 2),
                     min_size=2, max_size=4, unique=True)
    aps = tuple(
        AccessPoint(position=(x, y, height), beam=draw(st.sampled_from(beams)),
                    lens=draw(st.sampled_from([None, base.lens_design])),
                    array_n=draw(st.sampled_from([1, 2, 5])),
                    pitch=draw(st.sampled_from([10e-6, 20e-6])))
        for x, y in draw(spots)
    )
    users = tuple(
        UserTerminal(position=xy, detector_area=draw(st.sampled_from([1e-4, 2e-4])),
                     fov_half_angle=draw(st.sampled_from([math.pi / 2, 0.5])))
        for xy in draw(spots)[:len(aps)]
    )
    scene = dataclasses.replace(base, room=room, aps=aps, users=users, placement="explicit")
    seeds = None
    if draw(st.booleans()):
        # More than two random users in a 1 m room are often rank deficient.
        scene = place_users(scene, min(len(users), 2), draw(st.integers(0, 50)))
        seeds = tuple(draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True)))
    sweep = SweepSpec(waist_start=1e-6, waist_end=draw(st.sampled_from([1.5e-6, 3e-6])), steps=2,
                      lens_modes=draw(st.sampled_from([("off",), ("on",), ("off", "on")])),
                      seeds=seeds)
    return scene, sweep


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases())
def test_every_point_channel_matches_a_fresh_build(case):
    """The channel of every (point, seed), and each collected artifact, equal
    build_channel_matrix of that point's scene built from scratch, bit for
    bit. A point whose precoder fails ends the sweep; the channels built up
    to it are still checked."""
    scene, sweep = case
    built = []

    def recording(scn, geometry):
        built.append(build_channel_matrix(scn, geometry))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vcselnet.sweep, "build_channel_matrix", recording)
        try:
            result = run_sweep(scene, sweep, collect_artifacts=True)
        except SweepPointError:
            result = None
    seeds = sweep.seeds if scene.placement == "random" else (None,)
    waists = np.linspace(sweep.waist_start, sweep.waist_end, sweep.steps).tolist()
    points = list(itertools.product(enumerate(waists), sorted(sweep.lens_modes), seeds))
    assert 0 < len(built) <= len(points)
    for h, ((w_idx, waist), mode, seed) in zip(built, points):
        placed = scene if seed is None else place_users(scene, len(scene.users), seed)
        assert vcselnet.sweep._configure(placed, waist, mode) == configured(placed, waist, mode)
        want = build_channel_matrix(configured(placed, waist, mode))
        for name in ("gains", "distances", "offsets"):
            assert getattr(h, name).tobytes() == getattr(want, name).tobytes()
        if result is not None and seed == seeds[0]:
            assert result.artifacts[w_idx, mode][0] is h
    assert result is None or len(built) == len(points)


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases(), waist=st.sampled_from([1e-6, 2.5e-6]),
       mode=st.sampled_from(["off", "on"]))
def test_point_scene_equals_its_rebuild(case, waist, mode):
    """A point's scene equals the dataclasses.replace rebuild AP by AP and
    field by field (warnings too), and so does each seed's scene made from
    it, although neither runs __init__. APs that shared a beam object share
    its rebuilt beam."""
    scene, sweep = case
    point = vcselnet.sweep._configure(scene, waist, mode)
    shared = [[b is c.beam for c in scene.aps] for b in (ap.beam for ap in scene.aps)]
    assert [[b is c.beam for c in point.aps] for b in (ap.beam for ap in point.aps)] == shared
    want = configured(scene, waist, mode)
    assert len(point.aps) == len(want.aps)
    for got, ref in zip(point.aps, want.aps):
        assert type(got) is AccessPoint
        assert vars(got) == vars(ref)
    assert vars(point) == vars(want)
    for seed in sweep.seeds or ():
        base = place_users(scene, len(scene.users), seed)
        assert vars(base.with_aps(point.aps)) == vars(dataclasses.replace(base, aps=point.aps))


@pytest.mark.parametrize("placement", ["on-axis", "random"])
def test_a_point_validates_no_access_point(compact_scene, monkeypatch, placement):
    """Only the beams and lens change between points, so no point runs
    AccessPoint.__post_init__, and placing a random scene's users, once per
    seed, copies the scene without Scene.__post_init__."""
    calls = {AccessPoint: 0, Scene: 0}
    for cls in calls:
        def counting(self, cls=cls, validate=cls.__post_init__):
            calls[cls] += 1
            validate(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    if placement == "random":
        scene = place_users(compact_scene, 2, seed=0)
        sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=2, lens_modes=("off",),
                          seeds=(0, 1, 2))
    else:
        scene = load_scene(GRID_CONFIG)
        sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    calls.update({AccessPoint: 0, Scene: 0})
    assert len(run_sweep(scene, sweep).rows) == sweep.steps * len(sweep.lens_modes)
    assert calls == {AccessPoint: 0, Scene: 0}


@pytest.mark.parametrize("mode", ["off", "on"])
def test_a_random_point_makes_no_replace_and_no_revalidation(compact_scene, mode):
    """One random-placement point through the public calls, in run_sweep's
    order: place_users, the cap of each AP, the channel, ZF and the link
    report. Every copy it makes is of a spec already valid, so it calls
    dataclasses.replace nowhere and runs no Scene, UserTerminal or BeamSpec
    check (with the lens on, neither for the relayed beam)."""
    # A waist no other test uses, so the channel derives its source afresh.
    beam = dataclasses.replace(compact_scene.aps[0].beam, w0=5.5e-6)
    lens = compact_scene.lens_design if mode == "on" else None
    scene = compact_scene.with_aps(tuple(ap.with_source(beam, lens) for ap in compact_scene.aps))
    watched = {dataclasses.replace.__code__: "dataclasses.replace"}
    watched.update((cls.__post_init__.__code__, f"{cls.__name__}.__post_init__")
                   for cls in (Scene, UserTerminal, BeamSpec))
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.append(watched[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        placed = place_users(scene, len(scene.aps), 3)
        caps = np.array([ap.array_n**2 * max_safe_power(ap.beam, placed.safety, ap.lens).p_max
                         for ap in placed.aps])
        h = build_channel_matrix(placed)
        report = link_report(placed, h, zf_precoder(h, caps), "shannon")
    finally:
        sys.setprofile(previous)
    assert report.sum_rate > 0.0
    assert seen == []


@pytest.mark.parametrize("placement", ["on-axis", "random"])
def test_position_only_work_is_done_once_per_seed(compact_scene, monkeypatch, placement):
    calls = {"link_geometry": 0, "place_users": 0, "build_channel_matrix": 0}

    def counting(name):
        fn = getattr(vcselnet.sweep, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    if placement == "random":
        scene = place_users(compact_scene, 3, seed=0)
    else:
        scene = place_users_on_axis(compact_scene, 3)
    for name in calls:
        monkeypatch.setattr(vcselnet.sweep, name, counting(name))
    sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=3,
                      lens_modes=("off",), seeds=(0, 1, 2))
    run_sweep(scene, sweep)
    # Only a random scene is evaluated once per seed.
    evaluated = len(sweep.seeds) if placement == "random" else 1
    assert calls == {
        "link_geometry": evaluated,
        "place_users": evaluated if placement == "random" else 0,
        "build_channel_matrix": sweep.steps * evaluated,
    }


def test_a_sweep_integrates_all_its_points_in_one_first_round(monkeypatch):
    """The pinned grid's four points share one batch. The first point's
    channel build integrates the 8, 1, 1 and 1 lit offsets of all four in
    one first-round kernel call, where each point made its own before, and
    every kernel call runs inside one of the sweep's channel builds. Each
    lit offset has one segment row: the circle at rho = 0, else the arc,
    since the grid's 1 m pitch puts every other offset past the disc."""
    kernel_calls, open_builds = [], []

    def kernel(x, modes, cs):
        kernel_calls.append((x.shape, len(open_builds)))
        return mode_sum(x, modes, cs)

    def build(scn, geometry):
        open_builds.append(scn)
        try:
            return build_channel_matrix(scn, geometry)
        finally:
            open_builds.pop()

    scene = load_scene(GRID_CONFIG)
    batches = len(link_geometry(scene).batches)
    monkeypatch.setattr(channel, "mode_sum", kernel)
    monkeypatch.setattr(vcselnet.sweep, "build_channel_matrix", build)
    run_sweep(scene, SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2))
    first_rounds = [shape for shape, _ in kernel_calls if shape[1] == FIRST_ROUND_NODES]
    assert batches == 1
    assert first_rounds == [(8 + 1 + 1 + 1, FIRST_ROUND_NODES)]
    assert kernel_calls and all(depth == 1 for _, depth in kernel_calls)


def two_source_scene():
    """The compact room with explicit users, its first AP at 940 nm."""
    scene = load_scene(COMPACT_CONFIG)
    aps = (dataclasses.replace(scene.aps[0], beam=dataclasses.replace(scene.aps[0].beam,
                                                                      wavelength=940e-9)),
           *scene.aps[1:])
    sweep = SweepSpec(waist_start=1e-6, waist_end=3e-6, steps=2)
    return place_users_on_axis(dataclasses.replace(scene, aps=aps), 3), sweep


def test_a_two_source_sweep_integrates_every_source_in_one_first_round(monkeypatch):
    """Both sources of all four points share a mode set: the first build
    integrates them in one first-round kernel call, as many rows as the
    four fresh builds' first rounds together, and every point equals its
    fresh build bit for bit."""
    scene, sweep = two_source_scene()
    first_rounds, built = [], []

    def kernel(x, modes, cs):
        if x.shape[1] == FIRST_ROUND_NODES:
            first_rounds.append(x.shape[0])
        return mode_sum(x, modes, cs)

    def recording(scn, geometry):
        built.append((scn, build_channel_matrix(scn, geometry)))
        return built[-1][1]

    monkeypatch.setattr(channel, "mode_sum", kernel)
    monkeypatch.setattr(vcselnet.sweep, "build_channel_matrix", recording)
    run_sweep(scene, sweep)
    merged = first_rounds[:]
    first_rounds.clear()
    assert len(merged) == 1 and len(built) == 4
    assert all(len(channel.distinct_sources(scn.aps)[0]) == 2 for scn, _ in built)
    for scn, h in built:
        want = build_channel_matrix(scn)
        for name in ("gains", "distances", "offsets"):
            assert getattr(h, name).tobytes() == getattr(want, name).tobytes()
    assert len(first_rounds) == len(built)
    assert merged == [sum(first_rounds)]


def test_sources_with_equal_but_distinct_mode_sets_share_one_first_round(monkeypatch):
    """Sources are grouped for the merged pass by the value of their mode
    set: a first AP whose modes are an equal copy still shares the one
    first-round kernel call."""
    scene, sweep = two_source_scene()
    beam = scene.aps[0].beam
    copy = dataclasses.replace(beam, modes=tuple(list(beam.modes)))
    assert copy.modes == scene.aps[1].beam.modes and copy.modes is not scene.aps[1].beam.modes
    scene = dataclasses.replace(scene, aps=(dataclasses.replace(scene.aps[0], beam=copy),
                                            *scene.aps[1:]))
    first_rounds = []

    def kernel(x, modes, cs):
        if x.shape[1] == FIRST_ROUND_NODES:
            first_rounds.append(x.shape[0])
        return mode_sum(x, modes, cs)

    monkeypatch.setattr(channel, "mode_sum", kernel)
    run_sweep(scene, sweep)
    assert len(first_rounds) == 1


def three_seed_scene():
    # Lens off: the compact room keeps every random draw zero-forceable.
    sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=4, lens_modes=("off",),
                      seeds=(0, 1, 2))
    return place_users(load_scene(COMPACT_CONFIG), 3, seed=0), sweep


@pytest.mark.parametrize("make", [two_source_scene, three_seed_scene])
def test_merged_channels_equal_fresh_builds(make):
    """Every (point, seed) channel of a sweep, all taken from the captures of
    its geometry's first build, equals a fresh build of the point's scene
    bit for bit."""
    scene, sweep = make()
    built = []

    def recording(scn, geometry):
        built.append((scn, geometry, build_channel_matrix(scn, geometry)))
        return built[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vcselnet.sweep, "build_channel_matrix", recording)
        run_sweep(scene, sweep)
    seeds = len(sweep.seeds or (None,))
    geometries = {id(geometry): geometry for _, geometry, _ in built}
    assert len(geometries) == seeds and len(built) == 4 * seeds
    per_point = len(channel.distinct_sources(scene.aps)[0])
    for geometry in geometries.values():
        # Every point's sources are announced and integrated, and no other.
        sources = {(ap.beam, ap.lens) for scn, g, _ in built if g is geometry for ap in scn.aps}
        assert len(geometry.sources) == len(sources) == 4 * per_point
        assert geometry.captures.keys() == set(geometry.sources) == sources
    for scn, _, h in built:
        want = build_channel_matrix(scn)
        for name in ("gains", "distances", "offsets"):
            assert getattr(h, name).tobytes() == getattr(want, name).tobytes()


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases(), order=st.randoms(use_true_random=False))
def test_listed_points_built_in_any_order_match_fresh_builds(case, order):
    """Whichever listed point is built first integrates every announced
    source; each build then equals a fresh build of its scene bit for bit."""
    scene, sweep = case
    base, points = sweep_points(scene, sweep)
    sources = announced(points)
    geometry = link_geometry(base, sources)
    order.shuffle(points)
    for point in points:
        placed = point if base is scene else base.with_aps(point.aps)
        h = build_channel_matrix(placed, geometry)
        assert geometry.captures.keys() == set(sources)
        assert h.gains.tobytes() == build_channel_matrix(placed).gains.tobytes()


def sweep_points(scene, sweep):
    """The first seed's base scene and the sweep's points, as run_sweep makes them."""
    seed = (sweep.seeds or (scene.seed,))[0]
    base = scene if scene.placement != "random" else place_users(scene, len(scene.users), seed)
    waists = np.linspace(sweep.waist_start, sweep.waist_end, sweep.steps).tolist()
    return base, [vcselnet.sweep._configure(scene, waist, mode)
                  for waist in waists for mode in sorted(sweep.lens_modes)]


def announced(scenes):
    """Every scene's distinct (beam, lens) sources, in order."""
    return tuple(pair for scn in scenes for pair in channel.distinct_sources(scn.aps)[0])


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases(), order=st.randoms(use_true_random=False))
def test_listed_and_unlisted_builds_in_any_order_share_one_memo(case, order):
    """Builds on one geometry, listed points and unlisted scenes (the base
    scene itself, and a point with one AP at 940 nm) in any order, each
    equal a fresh build bit for bit, and the memo ends up keyed by exactly
    the distinct sources announced or built."""
    scene, sweep = case
    base, points = sweep_points(scene, sweep)
    aps = list(points[0].aps)
    aps[0] = dataclasses.replace(aps[0], beam=dataclasses.replace(aps[0].beam, wavelength=940e-9))
    scenes = [*points, base, points[0].with_aps(tuple(aps))]
    geometry = link_geometry(base, announced(points))
    order.shuffle(scenes)
    for scn in scenes:
        placed = scn if base is scene else base.with_aps(scn.aps)
        h = build_channel_matrix(placed, geometry)
        assert h.gains.tobytes() == build_channel_matrix(placed).gains.tobytes()
    assert geometry.captures.keys() == set(announced(points)) | set(announced(scenes))


def coincident_users_config(height=2.999):
    """Two users at one spot, so every point's precoder fails, 1 mm below
    the APs: at 1 um the lens puts its relayed waist 2.1 mm past the lens,
    beyond the receive plane."""
    return (COMPACT_CONFIG.replace("width_m = 1.0", f"rx_plane_height_m = {height}\nwidth_m = 1.0")
            + "\n[users]\npositions_m = (0.25, 0.25); (0.25, 0.25)\n")


def test_an_out_of_domain_source_beside_another_raises_its_domain_error(monkeypatch):
    """1 mm below the APs, the lens relays a 1 um waist 2.1 mm past itself
    and a 5 um waist 0.14 mm: the first source is out of domain, the second
    is not. A build on a geometry that announced both sources, or none,
    names the first and derives each source once: the error raised is the
    one kept in the memo."""
    scene = load_scene(coincident_users_config())
    narrow = dataclasses.replace(scene.aps[0].beam, w0=1e-6)
    aps = tuple(dataclasses.replace(ap, beam=narrow if a == 0 else ap.beam,
                                    lens=scene.lens_design)
                for a, ap in enumerate(scene.aps))
    scene = dataclasses.replace(scene, aps=aps)
    assert len(channel.distinct_sources(aps)[0]) == 2
    derived = []
    source = channel._source
    monkeypatch.setattr(channel, "_source", lambda *args: derived.append(args) or source(*args))
    pairs = channel.distinct_sources(aps)[0]
    for geometry in (link_geometry(scene, tuple(pairs)), link_geometry(scene), None):
        derived.clear()
        with pytest.raises(DomainError, match="does not reach past") as info:
            build_channel_matrix(scene, geometry)
        assert len(derived) == 2
        if geometry is not None:
            assert geometry.captures.keys() == set(pairs)
            assert [error for _, error in map(geometry.captures.get, pairs)] == [info.value, None]


def test_an_out_of_domain_build_repeated_on_one_geometry_keeps_its_traceback_length():
    """With every AP at 1 um and the lens on, 1 mm below the APs, the one
    source is out of domain. Three builds on one geometry raise the error
    object its memo keeps, each with a traceback of its own build only."""
    scene = load_scene(coincident_users_config())
    narrow = dataclasses.replace(scene.aps[0].beam, w0=1e-6)
    scene = dataclasses.replace(scene, aps=tuple(
        dataclasses.replace(ap, beam=narrow, lens=scene.lens_design) for ap in scene.aps))
    geometry = link_geometry(scene)
    lengths = []
    for _ in range(3):
        with pytest.raises(DomainError, match="does not reach past") as info:
            build_channel_matrix(scene, geometry)
        lengths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert [error for _, error in geometry.captures.values()] == [info.value]
    assert lengths[0] == lengths[1] == lengths[2]


def test_an_earlier_precoder_failure_comes_before_a_later_link_error():
    scene = load_scene(coincident_users_config())
    sweep = SweepSpec(waist_start=1e-6, waist_end=2e-6, steps=2)
    # On its own, the second point (1 um, lens on) fails in its channel.
    with pytest.raises(SweepPointError, match="lens=on.*does not reach past") as info:
        run_sweep(scene, dataclasses.replace(sweep, lens_modes=("on",)))
    assert isinstance(info.value.original, DomainError)
    # In the whole sweep the first point's channel build integrates both,
    # and the first point's own precoder failure is raised.
    with pytest.raises(SweepPointError, match="waist=1e-06 m, lens=off") as info:
        run_sweep(scene, sweep)
    assert type(info.value.original).__name__ == "SingularChannelError"


def test_an_earlier_precoder_failure_comes_before_a_later_non_convergence(monkeypatch):
    scene = load_scene(coincident_users_config(height=1.0))
    noise = np.random.default_rng(0)
    # 2 m from the source, w_z falls as w0 grows, so a row's first c (which
    # goes as 1 / w_z^2) exceeds a 1.5 um beam's where its source is wider.
    c_mid = mode_constants(2.0, dataclasses.replace(scene.aps[0].beam, w0=1.5e-6))[1]

    def erratic(x, modes, cs):
        # Fresh noise on the rows of beams wider than 1.5 um: they never converge.
        values = mode_sum(x, modes, cs)
        return np.where(cs[0] > c_mid, noise.random(values.shape), values)

    monkeypatch.setattr(channel, "mode_sum", erratic)
    sweep = SweepSpec(waist_start=1e-6, waist_end=2e-6, steps=2, lens_modes=("off",))
    with pytest.raises(SweepPointError, match="waist=2e-06 m.*did not converge"):
        run_sweep(scene, dataclasses.replace(sweep, waist_start=2e-6, waist_end=3e-6))
    with pytest.raises(SweepPointError, match="waist=1e-06 m, lens=off") as info:
        run_sweep(scene, sweep)
    assert type(info.value.original).__name__ == "SingularChannelError"


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases(), copies=st.booleans())
def test_sources_are_grouped_by_value(case, copies):
    """channel.distinct_sources groups APs by the values of their beams and
    lenses, whether APs share one object or each holds an equal copy. A
    sweep groups its first point's APs so, once, and the per-AP caps it
    gathers from that grouping are, at every point, each AP's own eye-safe
    cap times its VCSEL count, bit for bit."""
    scene, sweep = case
    if copies:
        scene = dataclasses.replace(scene, aps=tuple(
            dataclasses.replace(ap, beam=dataclasses.replace(ap.beam),
                                lens=ap.lens and dataclasses.replace(ap.lens))
            for ap in scene.aps))
    keys = [(ap.beam, ap.lens) for ap in scene.aps]
    pairs, source_of = channel.distinct_sources(scene.aps)
    assert pairs == list(dict.fromkeys(keys))
    assert source_of.tolist() == [pairs.index(key) for key in keys]

    caps = []

    def precoder(h, ap_caps):
        caps.append(ap_caps)
        return zf_precoder(h, ap_caps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vcselnet.sweep, "zf_precoder", precoder)
        try:
            run_sweep(scene, sweep)
        except SweepPointError:
            pass
    seeds = len(sweep.seeds or (None,)) if scene.placement == "random" else 1
    waists = np.linspace(sweep.waist_start, sweep.waist_end, sweep.steps).tolist()
    points = [configured(scene, waist, mode) for waist in waists
              for mode in sorted(sweep.lens_modes)]
    assert caps
    for k, got in enumerate(caps):
        point = points[k // seeds]
        want = np.array([ap.array_n**2 * max_safe_power(ap.beam, point.safety, ap.lens).p_max
                         for ap in point.aps])
        assert got.tobytes() == want.tobytes()


def test_every_channel_owns_its_geometry_arrays(compact_scene):
    sweep = SweepSpec(waist_start=1e-6, waist_end=1.5e-6, steps=3, lens_modes=("off",))
    result = run_sweep(place_users_on_axis(compact_scene, 3), sweep, collect_artifacts=True)
    matrices = [h for h, _ in result.artifacts.values()]
    assert len(matrices) == 3
    for a, b in itertools.combinations(matrices, 2):
        for name in ("gains", "distances", "offsets"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
    offsets = matrices[1].offsets.copy()
    matrices[0].offsets[:] = -1.0
    assert np.array_equal(matrices[1].offsets, offsets)


@st.composite
def compact_sweeps(draw):
    """A random compact scene as config text, and a two-point sweep of it:
    1-4 APs anywhere on the ceiling of a room up to 5 m square, as many or
    fewer users anywhere on a receive plane 0.1-2.5 m below, lens on, off or
    both, waists 1-200 um, detector areas 1e-5-1e-2 m^2 and MPEs
    1e-3-1e3 W/m^2, both drawn log-uniformly."""
    width, length = draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0))
    n_aps = draw(st.integers(1, 4))
    spot = st.tuples(st.floats(0.0, width), st.floats(0.0, length))
    aps = draw(st.lists(spot, min_size=n_aps, max_size=n_aps))
    users = draw(st.lists(spot, min_size=1, max_size=n_aps))
    text = (
        f"[room]\nwidth_m = {width!r}\nlength_m = {length!r}\n"
        f"rx_plane_height_m = {draw(st.floats(0.5, 2.9))!r}\n"
        "[transmitters]\npositions_m = " + "; ".join(f"({x!r}, {y!r}, 3.0)" for x, y in aps)
        + f"\n[receiver]\ndetector_area_m2 = {10.0 ** draw(st.floats(-5.0, -2.0))!r}\n"
        "[users]\npositions_m = " + "; ".join(f"({x!r}, {y!r})" for x, y in users)
        + f"\n[safety]\nmpe_w_per_m2 = {10.0 ** draw(st.floats(-3.0, 3.0))!r}\n"
    )
    waists = sorted(draw(st.lists(st.floats(1e-6, 2e-4), min_size=2, max_size=2, unique=True)))
    modes = draw(st.sampled_from([("off",), ("on",), ("off", "on")]))
    return text, SweepSpec(waist_start=waists[0], waist_end=waists[1], steps=2, lens_modes=modes)


@settings(max_examples=150, deadline=None)
@given(case=compact_sweeps(), rate_model=st.sampled_from(["shannon", "ook"]))
def test_a_random_compact_sweep_raises_or_reports_finite_rows(case, rate_model):
    """Over a few seconds of random scenes, a sweep either refuses with a
    VcselNetError (mostly a rank-deficient channel) or writes rows whose
    rates, efficiencies, spreads and caps are finite and non-negative, and
    every point it writes holds:

    - every gain lies in [0, 1];
    - max |H G0 - I| <= 4 n eps cond(H), n the AP count: each product that
      forms or checks G0 (two in the Newton-Schulz step, one here) rounds an
      entry by at most n eps / 2 times an entry of |H| |G0|, and no entry
      of that exceeds |H|_2 |G0|_2 = cond(H); the raw inverse's residual,
      at most n cond eps, is squared by the step, which leaves less than
      n cond eps while cond(H) <= 1e10, the rank check's limit;
    - each AP's row sum of |g| is at most its cap, array_n^2 times
      max_safe_power of the point's beam and lens, times 1 + 1e-12;

    and a repeated sweep gives identical rows."""
    text, sweep = case
    try:
        scene = load_scene(text)
        result = run_sweep(scene, sweep, rate_model=rate_model, collect_artifacts=True)
    except VcselNetError:
        return
    for row in result.rows:
        values = (row.sum_rate, row.sum_rate_std, row.ee, row.ee_std, row.p_max)
        assert all(math.isfinite(v) and v >= 0.0 for v in values), (row, text)
    waists = np.linspace(sweep.waist_start, sweep.waist_end, sweep.steps)
    for (w_idx, mode), (h, precoder) in result.artifacts.items():
        gains = h.gains
        assert ((gains >= 0.0) & (gains <= 1.0)).all(), text
        n_users, n_aps = gains.shape
        residual = np.abs(gains @ precoder.g0 - np.eye(n_users)).max()
        assert residual <= 4 * n_aps * np.finfo(float).eps * np.linalg.cond(gains), text
        waist, lens = float(waists[w_idx]), scene.lens_design if mode == "on" else None
        caps = np.array([max_safe_power(dataclasses.replace(ap.beam, w0=waist), scene.safety,
                                        lens).p_max * ap.array_n**2 for ap in scene.aps])
        assert (np.abs(precoder.g).sum(axis=1) <= caps * (1 + 1e-12)).all(), text
    again = run_sweep(scene, sweep, rate_model=rate_model)
    assert again.rows == result.rows, text


def test_importing_the_cli_loads_no_third_party_module_but_numpy():
    """A fresh interpreter's import of vcselnet.cli adds numpy and the
    package alone: any other third-party module would add to every CLI run's
    start-up time and to the runtime dependencies."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vcselnet.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names)))\n"
    )
    src = str(Path(vcselnet.sweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'vcselnet']"


class TestCli:
    def run_cli(self, tmp_path, config_file, *extra):
        out = tmp_path / "out"
        argv = [
            "--config", str(config_file),
            "--waist-start", "3e-6",
            "--waist-end", "5e-6",
            "--steps", "2",
            "--out", str(out),
            *extra,
        ]
        return main(argv), out

    def test_happy_path(self, tmp_path, config_file, capsys):
        code, out = self.run_cli(tmp_path, config_file)
        assert code == 0
        captured = capsys.readouterr()
        assert (out / "results.csv").exists()
        assert str(out / "results.csv") in captured.out

    def test_missing_exposure_limit_exits_3(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "out"), "--steps", "2"])
        assert code == 3
        assert "mpe_w_per_m2" in capsys.readouterr().err

    def test_nonexistent_config_exits_5(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "missing.ini")])
        assert code == 5

    def test_unparseable_config_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("just words\n", encoding="utf-8")
        code = main(["--config", str(bad)])
        assert code == 3

    def test_bad_flag_exits_2(self, capsys):
        assert main(["--no-such-flag"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "beam waist" in capsys.readouterr().out

    def test_infinite_waist_exits_3_before_any_point(self, tmp_path, config_file, capsys,
                                                     monkeypatch, recwarn):
        points = []
        monkeypatch.setattr(vcselnet.sweep, "_configure", lambda *args: points.append(args))
        code, out = self.run_cli(tmp_path, config_file, "--waist-end", "inf")
        assert code == 3
        assert "both finite, got 3e-06, inf" in capsys.readouterr().err
        assert not points and not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bad_seeds_exit_3(self, tmp_path, config_file, capsys):
        code, _ = self.run_cli(tmp_path, config_file, "--seeds", "a,b")
        assert code == 3

    def test_too_many_users_exits_4(self, tmp_path, capsys):
        config = tmp_path / "crowded.ini"
        config.write_text(CONFIG_TEXT + "\n[users]\ncount = 9\n", encoding="utf-8")
        code, _ = self.run_cli(tmp_path, config)
        assert code == 4

    def test_weak_user_is_named_alone(self, tmp_path, capsys):
        # Seed 15 at 3 um lens on: each user reaches one AP of its own, and
        # user 3's gain is 3e-12 of the strongest, so no pair is to blame.
        config = tmp_path / "random.ini"
        config.write_text(COMPACT_CONFIG + "\n[users]\nplacement = random\ncount = 4\n",
                          encoding="utf-8")
        code, _ = self.run_cli(tmp_path, config, "--seeds", "15", "--lens", "on",
                               "--waist-start", "3e-6", "--waist-end", "4e-6")
        assert code == 4
        err = capsys.readouterr().err
        assert "waist=3e-06 m" in err and "user 3's channel row is 2.98e-12 times" in err
        assert "users 0 and 1" not in err

    def test_narrow_beams_near_the_receive_plane_are_served(self, tmp_path, capsys):
        # 1 cm below the APs the beams are 10-200 um wide, 1-3 % of the 8 mm
        # detector radius, and user 0 sits 4 mm off its AP's axis: a
        # detector-centred 2-D quadrature's nodes straddled such beams and
        # left user 0 with an all-zero channel row (exit 4 at 7.33e-5 m).
        config = tmp_path / "near.ini"
        config.write_text(CONFIG_TEXT + "\n[room]\nrx_plane_height_m = 2.99\n\n[users]\n"
                          "positions_m = (3.004, 3.0); (1.0, 3.0); (3.0, 1.0); (1.0, 1.0)\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "--waist-start", "1e-5",
                     "--waist-end", "2e-4", "--steps", "4", "--lens", "off"])
        assert code == 0, capsys.readouterr().err
        with open(out / "results.csv", encoding="utf-8") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        assert len(rows) == 4
        assert all(math.isfinite(float(row["min_user_snr_db"])) for row in rows)

    def test_fixed_transmit_power_exits_3(self, tmp_path, capsys):
        config = tmp_path / "fixed.ini"
        config.write_text(CONFIG_TEXT + "\n[vcsel]\nper_vcsel_power_w = 1e-5\n",
                          encoding="utf-8")
        code, out = self.run_cli(tmp_path, config)
        assert code == 3
        assert "per_vcsel_power_w" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("lens", "refractive_index"),
                                              ("electrical", "vcsel_bandwidth_hz")])
    def test_a_removed_key_exits_3_naming_it(self, tmp_path, capsys, section, key):
        config = tmp_path / "removed.ini"
        config.write_text(CONFIG_TEXT + f"\n[{section}]\n{key} = 1.7\n", encoding="utf-8")
        code, out = self.run_cli(tmp_path, config)
        assert code == 3
        assert f"unknown config key {section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("vcsel", "beam_waist_m", "0", "w0 must be positive and finite, got 0.0"),
            ("vcsel", "beam_waist_m", "inf", "w0 must be positive and finite, got inf"),
            ("lens", "focal_length_m", "inf", "focal length must be positive and finite"),
        ],
    )
    def test_invalid_beam_or_lens_exits_3_naming_the_key(self, tmp_path, capsys, section, key,
                                                          value, message):
        config = tmp_path / "invalid.ini"
        config.write_text(CONFIG_TEXT + f"\n[{section}]\n{key} = {value}\n", encoding="utf-8")
        code, out = self.run_cli(tmp_path, config)
        assert code == 3
        assert f"{section}.{key}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("electrical", "rx_bandwidth_hz", "inf"),
            ("electrical", "temperature_k", "inf"),
            ("electrical", "rin_db_per_hz", "-inf"),
            ("safety", "mpe_w_per_m2", "inf"),
            ("receiver", "detector_area_m2", "inf"),
            ("room", "width_m", "nan"),
            ("vcsel", "pitch_m", "inf"),
        ],
    )
    def test_non_finite_config_number_exits_3_naming_the_key(self, tmp_path, capsys, section,
                                                              key, value):
        # These once ran: NaN or zero rates, or a late precoder or quadrature error.
        config = tmp_path / "non_finite.ini"
        text = f"[{section}]\n{key} = {value}\n"
        config.write_text(text if section == "safety" else CONFIG_TEXT + text, encoding="utf-8")
        code, out = self.run_cli(tmp_path, config)
        assert code == 3
        assert f"{section}.{key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "extra, lines, needles",
        [
            # z_r underflows to 0, then overflows; the waist's own point is named.
            (("--waist-start", "1e-200", "--waist-end", "1e-6"), "",
             ("waist=1e-200 m, lens=off", "Rayleigh range of 0.0 m")),
            (("--waist-start", "1e-6", "--waist-end", "1e200"), "",
             ("waist=1e+200 m, lens=off", "Rayleigh range of inf m")),
            (("--waist-start", "1e-100", "--waist-end", "1e-6"), "",
             ("waist=1e-100 m, lens=off", "beam radius of w0 1e-100 m overflows")),
            # The pupil fraction rounds to 0.
            (("--waist-start", "1e10", "--waist-end", "1e11"), "",
             ("waist=10000000000.0 m, lens=off", "pupil fraction rounds to 0")),
            ((), "pupil_radius_m = 1e-200\n", ("pupil_radius 1e-200 m",)),
            # The lens relay over- or underflows.
            ((), "[vcsel]\nwavelength_m = 1e-300\n",
             ("lens f=0.000127 m, d1=0.000133 m", "wavelength 1e-300 m")),
            ((), "[lens]\nfocal_length_m = 1e300\n", ("lens f=1e+300 m",)),
            ((), "[lens]\nfocal_length_m = 1e-300\n",
             ("waist=3e-06 m, lens=on", "lens f=1e-300 m, d1=0.000133 m relays w0 3e-06 m",
              "waist of 2.1882374463891946e-302 m whose Rayleigh range")),
            # r_p^2 and the linear noise figure overflow.
            ((), "pupil_radius_m = 1e200\n", ("pupil_radius 1e+200 m overflows",)),
            ((), "[electrical]\ntia_noise_figure_db = 1e300\n",
             ("waist=3e-06 m, lens=off", "noise_figure_db 1e+300 dB overflows")),
            # Currents overflow: the SINR is NaN, which OOK would rate 0 bit/s.
            (("--rate-model", "shannon"), "", ("waist=3e-06 m, lens=off", "user 0: SINR is nan")),
            (("--rate-model", "ook"), "", ("waist=3e-06 m, lens=off", "user 0: SINR is nan")),
        ],
        ids=["z_r-underflow", "z_r-overflow", "radius-overflow", "eta-at-large-waist",
             "eta-at-tiny-pupil", "relay-of-tiny-wavelength", "relay-of-huge-focal-length",
             "relay-of-tiny-focal-length", "pupil-overflow", "noise-figure-overflow",
             "nan-sinr-shannon", "nan-sinr-ook"],
    )
    def test_out_of_range_numbers_exit_6_naming_the_field_or_point(self, tmp_path, capsys,
                                                                    extra, lines, needles):
        mpe = "1e300" if "--rate-model" in extra else "10.0"
        config = tmp_path / "extreme.ini"
        config.write_text(f"[safety]\nmpe_w_per_m2 = {mpe}\n{lines}", encoding="utf-8")
        code, out = self.run_cli(tmp_path, config, *extra)
        err = capsys.readouterr().err
        assert code == 6, err
        assert all(needle in err for needle in needles), err
        assert not out.exists()

    def test_lens_selection(self, tmp_path, config_file, capsys):
        code, out = self.run_cli(tmp_path, config_file, "--lens", "on")
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert all(line.split(",")[1] == "on" for line in lines[2:])

    def test_random_placement_and_users(self, tmp_path, capsys):
        # Compact room + lens off: random draws stay zero-forceable.
        config = tmp_path / "random.ini"
        config.write_text(COMPACT_CONFIG + "\n[users]\nplacement = random\ncount = 2\n",
                          encoding="utf-8")
        code, out = self.run_cli(
            tmp_path, config,
            "--seeds", "0,1",
            "--lens", "off", "--waist-start", "1e-6", "--waist-end", "1.5e-6",
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert "placement=random" in lines[0]
        assert "users=2" in lines[0]
        assert all(line.split(",")[2] == "2" for line in lines[2:])

    def test_random_config_defaults_to_its_seed(self, tmp_path, capsys):
        text = COMPACT_CONFIG + "\n[users]\nplacement = random\ncount = 3\nseed = 9\n"
        config = tmp_path / "seed9.ini"
        config.write_text(text, encoding="utf-8")
        code, out = self.run_cli(
            tmp_path, config, "--lens", "off", "--waist-start", "1e-6", "--waist-end", "1.5e-6"
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == (
            "# schema=v1 placement=random rate_model=shannon users=3 seeds=9 lens_modes=off"
        )
        scene = load_scene(text)
        for line in lines[2:]:
            fields = line.split(",")
            report = manual_point(scene, float(fields[0]), "off", seed=9)
            assert float(fields[3]) == report.sum_rate
            assert float(fields[5]) == report.energy_efficiency

    def test_rate_model_flag(self, tmp_path, config_file, capsys):
        code, out = self.run_cli(tmp_path, config_file, "--rate-model", "ook")
        assert code == 0
        assert "rate_model=ook" in (out / "results.csv").read_text().splitlines()[0]

    def test_matrix_dumps(self, tmp_path, config_file, capsys):
        code, out = self.run_cli(
            tmp_path, config_file, "--dump-channel", "--dump-precoder"
        )
        assert code == 0
        for idx in ("00", "01"):
            for mode in ("off", "on"):
                assert (out / f"channel_w{idx}_{mode}.csv").exists()
                assert (out / f"precoder_w{idx}_{mode}.csv").exists()
        channel_lines = (out / "channel_w00_on.csv").read_text().splitlines()
        assert channel_lines[1] == "user,ap_0,ap_1,ap_2,ap_3"
        assert len(channel_lines) == 2 + 4

    def test_every_output_file_keeps_the_csv_format(self, tmp_path, config_file, capsys):
        """The default sweep with both dumps writes 37 files. Each is UTF-8
        with LF line endings and one trailing newline, and holds a
        '# schema=v1 ' comment line, a header and rows as wide as it."""
        out = tmp_path / "out"
        argv = ["--config", str(config_file), "--out", str(out), "--dump-channel",
                "--dump-precoder"]
        assert main(argv) == 0
        files = sorted(out.iterdir())
        assert len(files) == 37
        for path in files:
            text = path.read_bytes().decode("utf-8")
            assert "\r" not in text, path.name
            assert text.endswith("\n") and not text.endswith("\n\n"), path.name
            comment, header, *rows = text[:-1].split("\n")
            assert comment.startswith("# schema=v1 "), path.name
            cells = header.split(",")
            assert all(re.fullmatch(r"[a-z][a-z0-9_]*", cell) for cell in cells), path.name
            assert rows, path.name
            assert all(len(row.split(",")) == len(cells) for row in rows), path.name

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vcselnet", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "beam waist" in proc.stdout
