"""In-memory span tracer around the calls into vcselnet's layers.

Spans are recorded from benchmark code only. `instrument` swaps the layer
functions that `vcselnet.sweep` and `vcselnet.cli` look up at call time for
timed wrappers, and `restore` puts the package's own functions back; nothing
inside the package changes. Each span holds its name, start, end, parent span
and operation id. Counters are kept at the same call sites.

Run as a script, this module is the traced form of `python -m vcselnet`:

    python perfbench/tracing.py TRACE_FILE [vcselnet arguments ...]

It runs the CLI with the wrappers installed and writes the spans and counters
it recorded to TRACE_FILE as JSON when the CLI ends.
"""

from __future__ import annotations

import collections
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Public function -> span name. run_sweep looks the first six up in
# vcselnet.sweep and the CLI looks the last two up in vcselnet.cli.
LAYER_SPANS = {
    "place_users": "scene.place",
    "place_users_on_axis": "scene.place",
    "max_safe_power": "eye_safety",
    "build_channel_matrix": "channel",
    "zf_precoder": "precoding",
    "link_report": "link_budget",
    "run_sweep": "sweep.run",
    "emit_outputs": "sweep.emit",
}


class Tracer:
    """Spans as [name, start, end, parent index, op id] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self.counts[f"{name}.failed.{type(exc).__name__}"] += 1
                    raise
            _count(self.counts, name, args, result)
            return result

        return traced

    def absorb(self, data: dict) -> None:
        """Add spans and counters recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, par, _ in data["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.op])
        self.counts.update(data["counts"])

    def dump(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8"
        )


def _count(counts, name, args, result) -> None:
    if name == "channel":
        gains = result.gains
        geometry = np.stack([result.distances.ravel(), result.offsets.ravel()], axis=1)
        counts["channel.links"] += gains.size
        counts["channel.zero_gain_links"] += int(np.count_nonzero(gains == 0.0))
        counts["channel.unique_geometries"] += len(np.unique(geometry, axis=0))
    elif name == "link_budget":
        counts["link_budget.users"] += len(args[0].users)
    elif name == "sweep.emit":
        counts["sweep.bytes_written"] += sum(Path(p).stat().st_size for p in result)


def plain_layers() -> SimpleNamespace:
    """The package's own layer functions, for untraced operations."""
    import vcselnet

    return SimpleNamespace(**{name: getattr(vcselnet, name) for name in LAYER_SPANS})


def instrument(tracer: Tracer) -> SimpleNamespace:
    """Route the sweep's and CLI's layer calls through `tracer`; return the wrappers."""
    import vcselnet
    import vcselnet.cli
    import vcselnet.sweep

    wrapped = {name: tracer.wrap(span, getattr(vcselnet, name)) for name, span in LAYER_SPANS.items()}
    for module in (vcselnet.sweep, vcselnet.cli):
        for name, fn in wrapped.items():
            if hasattr(module, name):
                setattr(module, name, fn)
    return SimpleNamespace(**wrapped)


def restore() -> None:
    import vcselnet
    import vcselnet.cli
    import vcselnet.sweep

    for module in (vcselnet.sweep, vcselnet.cli):
        for name in LAYER_SPANS:
            if hasattr(module, name):
                setattr(module, name, getattr(vcselnet, name))


def _self_times(spans: list[list], names: set[str]) -> float:
    """Summed duration of spans named in `names`, minus what their direct children cover."""
    total = 0.0
    for name, start, end, _, _ in spans:
        if name in names:
            total += end - start
    for _, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] in names:
            total -= end - start
    return total


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer figures from the spans and counters of `ops` traced operations."""
    busy: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    for name, start, end, _, _ in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
    counts = tracer.counts
    # A point is one run_sweep body (grid_sweep, cli_default) or one
    # benchmark-built point (random_seeds).
    point_s = busy["sweep.run"] + busy["sweep.point"]
    links = counts["channel.links"]
    failed = {
        cls: counts[f"precoding.failed.{cls}"]
        for cls in ("SingularChannelError", "InfeasibleError")
    }

    def per_call(name, scale=1e6):
        return busy[name] / calls[name] * scale if calls[name] else 0.0

    return {
        "scene.place.calls": calls["scene.place"] / ops,
        "scene.place_us": per_call("scene.place"),
        "eye_safety.calls": calls["eye_safety"] / ops,
        "eye_safety.us_per_call": per_call("eye_safety"),
        "channel.calls": calls["channel"] / ops,
        "channel.busy_s": busy["channel"] / ops,
        "channel.links": links / ops,
        "channel.us_per_link": busy["channel"] / links * 1e6 if links else 0.0,
        "channel.share": busy["channel"] / point_s if point_s else 0.0,
        "channel.zero_gain_ratio": counts["channel.zero_gain_links"] / links if links else 0.0,
        "channel.unique_geometry_ratio": counts["channel.unique_geometries"] / links if links else 0.0,
        "precoding.calls": calls["precoding"] / ops,
        "precoding.busy_s": busy["precoding"] / ops,
        "precoding.us_per_call": per_call("precoding"),
        "precoding.failed": sum(failed.values()) / ops,
        **{f"precoding.failed.{cls}": n / ops for cls, n in failed.items()},
        "link_budget.calls": calls["link_budget"] / ops,
        "link_budget.busy_s": busy["link_budget"] / ops,
        "link_budget.us_per_user": (
            busy["link_budget"] / counts["link_budget.users"] * 1e6
            if counts["link_budget.users"] else 0.0
        ),
        "sweep.self_s": _self_times(tracer.spans, {"sweep.run", "sweep.point"}) / ops,
        "sweep.emit_s": busy["sweep.emit"] / ops,
        "sweep.bytes_written": counts["sweep.bytes_written"] / ops,
    }


def _traced_cli(trace_path: str, cli_args: list[str]) -> int:
    import runpy

    tracer = Tracer()
    instrument(tracer)
    sys.argv = ["vcselnet", *cli_args]
    code = 0
    try:
        runpy.run_module("vcselnet", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.dump(Path(trace_path))
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
