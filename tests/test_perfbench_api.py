"""The package surface that the benchmark under perfbench/ relies on.

perfbench/test_smoke.py runs the benchmark itself and takes tens of seconds,
so it stays out of the default test run. These tests only import the
benchmark's modules, check the names and fields they reach, and run a small
sweep under its tracer, so that removing one of them, or a change to
run_sweep that hides a layer call from the tracer, fails here and not first
in a benchmark run.
"""

import collections
import dataclasses
import importlib
import math
import sys
import time
from pathlib import Path

import pytest

import numpy as np

from vcselnet import (
    AccessPoint,
    ChannelMatrix,
    SweepSpec,
    build_channel_matrix,
    link_report,
    load_scene,
    max_safe_power,
    place_users,
    zf_precoder,
)
from vcselnet import channel
from vcselnet.beam_optics import mode_sum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's directory on the import path; its modules are only read
    (no bytecode is written there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_benchmark_modules_import_and_find_their_layers(perfbench):
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    layers = tracing.plain_layers()
    assert set(vars(layers)) == set(tracing.LAYER_SPANS)
    # workloads rebuilds APs with per_vcsel_power; tracing counts distinct
    # link geometries from a channel's distances and offsets.
    assert "per_vcsel_power" in field_names(AccessPoint)
    assert {"distances", "offsets"} <= field_names(ChannelMatrix)


def test_a_channel_carries_its_distances_for_the_tracer(scene_with_mpe):
    """perfbench's tracer stacks a channel's distances with its offsets to
    count distinct link geometries: each is an array of the channel's own,
    shaped like its gains, and every distance is the drop to the receive
    plane."""
    scene = scene_with_mpe
    h = build_channel_matrix(scene)
    drop = scene.aps[0].position[2] - scene.room.rx_plane_height
    assert h.distances.shape == h.offsets.shape == h.gains.shape
    assert h.distances.flags.owndata and h.distances.flags.writeable
    assert np.all(h.distances == drop)
    assert not np.shares_memory(h.distances, build_channel_matrix(scene).distances)


def test_a_traced_sweep_reports_every_layer_per_point(perfbench):
    """The benchmark's tracer, installed as it installs it, sees each point's
    layers in run_sweep: one channel, precoding and link_budget span per
    point and one eye_safety span per source per point, all inside the
    sweep.run span."""
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    # The benchmark's 2 x 2 grid, with one AP at another wavelength: two sources.
    scene = load_scene(workloads.grid_config(2))
    aps = list(scene.aps)
    aps[3] = dataclasses.replace(aps[3], beam=dataclasses.replace(aps[3].beam, wavelength=940e-9))
    scene = dataclasses.replace(scene, aps=tuple(aps))
    sweep = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)
    tracer = tracing.Tracer()
    try:
        result = tracing.instrument(tracer).run_sweep(scene, sweep)
    finally:
        tracing.restore()
    points, sources = len(result.rows), len({ap.beam for ap in scene.aps})
    assert (points, sources) == (4, 2)
    calls = collections.Counter(name for name, *_ in tracer.spans)
    assert calls == {"sweep.run": 1, "eye_safety": points * sources, "channel": points,
                     "precoding": points, "link_budget": points}
    assert all(parent == 0 for name, _, _, parent, _ in tracer.spans if name != "sweep.run")
    metrics = tracing.layer_metrics(tracer, ops=1)
    assert metrics["channel.calls"] == metrics["precoding.calls"] == points
    assert metrics["channel.links"] == points * len(scene.aps) * len(scene.users)


def test_a_traced_random_sweep_keeps_every_kernel_call_in_a_channel_span(perfbench,
                                                                        compact_scene,
                                                                        monkeypatch):
    """Under the benchmark's tracer, a randomly placed scene swept over two
    seeds has one channel, precoding and link_budget span per point and
    seed, one eye_safety span per point and source, and every disc-kernel
    call inside a channel span: perfbench bills the merged pass's time to
    channel.busy_s through that span."""
    tracing = importlib.import_module("tracing")
    aps = list(compact_scene.aps)
    aps[0] = dataclasses.replace(aps[0], beam=dataclasses.replace(aps[0].beam, wavelength=940e-9))
    scene = place_users(dataclasses.replace(compact_scene, aps=tuple(aps)), 3, seed=0)
    seeds = (0, 1)
    # Lens off: with it on, some of these draws leave a user unreached.
    sweep = SweepSpec(waist_start=1e-6, waist_end=3e-6, steps=4, lens_modes=("off",),
                      seeds=seeds)
    kernel_times = []

    def kernel(*args):
        kernel_times.append(time.perf_counter())
        return mode_sum(*args)

    monkeypatch.setattr(channel, "mode_sum", kernel)
    tracer = tracing.Tracer()
    try:
        result = tracing.instrument(tracer).run_sweep(scene, sweep)
    finally:
        tracing.restore()
    points, sources = len(result.rows), len({ap.beam for ap in scene.aps})
    assert (points, sources) == (4, 2)
    calls = collections.Counter(name for name, *_ in tracer.spans)
    runs = points * len(seeds)
    assert calls == {"sweep.run": 1, "scene.place": len(seeds), "eye_safety": points * sources,
                     "channel": runs, "precoding": runs, "link_budget": runs}
    channels = [(start, end) for name, start, end, *_ in tracer.spans if name == "channel"]
    assert kernel_times
    assert all(any(start <= t <= end for start, end in channels) for t in kernel_times)


def test_random_seeds_reads_a_link_report(perfbench, scene_with_mpe):
    """RandomSeeds.outcome reads a report's per_user[i].snr, sum_rate and
    energy_efficiency; per_user is built on read, so a change to it must
    fail here rather than in a benchmark run."""
    workloads = importlib.import_module("workloads")
    scene = scene_with_mpe
    caps = np.array([ap.array_n**2 * max_safe_power(ap.beam, scene.safety, ap.lens).p_max
                     for ap in scene.aps])
    h = build_channel_matrix(scene)
    precoder = zf_precoder(h, caps)
    report = link_report(scene, h, precoder, "shannon")
    outcome, _ = workloads.RandomSeeds.outcome(h, precoder, report)
    snr = min(report.per_user[i].snr for i in range(len(scene.users)))
    assert snr > 0
    assert outcome == ["ok", report.sum_rate, report.energy_efficiency,
                       10.0 * math.log10(snr), precoder.beta]


def test_the_kernel_benchmark_gets_a_new_array_equal_to_its_rows(perfbench, monkeypatch):
    """perfbench's beam_ns_per_node times beam_intensity(r, 2.0, beam) on a
    64 x 64 radius array: the call returns a new 64 x 64 array, and each of
    its rows equals a call on that row alone."""
    import vcselnet

    run = importlib.import_module("run")
    kernel, calls = vcselnet.beam_intensity, []

    def recording(r, z, beam):
        calls.append((r, z, beam, kernel(r, z, beam)))
        return calls[-1][-1]

    monkeypatch.setattr(vcselnet, "beam_intensity", recording)
    run.beam_ns_per_node(repeats=1)
    ((r, z, beam, got),) = calls
    assert z == 2.0
    assert r.shape == got.shape == (64, 64)
    assert not np.shares_memory(got, r)
    for row, values in zip(r, got):
        assert values.tobytes() == kernel(row, z, beam).tobytes()
