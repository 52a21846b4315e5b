"""The package surface that the benchmark under perfbench/ relies on.

perfbench/test_smoke.py runs the benchmark itself and takes tens of seconds,
so it stays out of the default test run. This test only imports the
benchmark's modules and checks the names and fields they reach, so that
removing one of them fails here and not first in a benchmark run.
"""

import dataclasses
import importlib
from pathlib import Path

from vcselnet import AccessPoint, ChannelMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_benchmark_modules_import_and_find_their_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    layers = tracing.plain_layers()
    assert set(vars(layers)) == set(tracing.LAYER_SPANS)
    # workloads rebuilds APs with per_vcsel_power; tracing counts distinct
    # link geometries from a channel's distances and offsets.
    assert "per_vcsel_power" in field_names(AccessPoint)
    assert {"distances", "offsets"} <= field_names(ChannelMatrix)
