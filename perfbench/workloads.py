"""The benchmark's three workloads, the inputs they build and the checks on their outputs.

Each workload is a closed loop in one process: the next operation starts when
the previous one has finished. Operations are grouped into rounds and a run
always ends on a whole round, so the work counts per operation are the same
in every run. The `mpe_w_per_m2 = 10.0` exposure limit of the test suite is
used throughout. cli_default and grid_sweep place users on-axis, so their
inputs do not depend on the seed; random_seeds shuffles its points by it.

Why these three:

- cli_default: `python -m vcselnet` with the README quickstart config. The
  only workload that pays interpreter start-up, import and CSV writing per
  operation, so it shows import and set-up cuts.
- grid_sweep: 8 x 8 APs at 1 m pitch with 64 on-axis users. Thousands of links
  per point share a few dozen (z, rho) geometries, and many gains are exactly
  zero, so vectorising, deduplicating or masking links shows in full here.
- random_seeds: the compact 1 m scene with randomly placed users. Every link
  geometry is distinct, a point has only 16 links, and more than half of the
  points are rank deficient, so it bypasses deduplication, shows a batched
  kernel's fixed per-call cost and drives the infeasible-point error path.

A point whose precoder raises SingularChannelError or InfeasibleError is an
expected outcome recorded in the reference; it lowers `point_ok_ratio` but is
not a failed operation. An operation fails when its outputs differ from the
reference by more than REL_TOL, when two repeats of one input differ in a
single byte, or when the CLI exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import vcselnet
from vcselnet import InfeasibleError, SingularChannelError, SweepSpec, load_scene

from tracing import plain_layers

HERE = Path(__file__).resolve().parent
MPE_W_PER_M2 = 10.0
REL_TOL = 1e-8  # the disc-quadrature relative target
SAFETY_CONFIG = f"[safety]\nmpe_w_per_m2 = {MPE_W_PER_M2}\n"
COMPACT_CONFIG = f"""\
[room]
width_m = 1.0
length_m = 1.0

[transmitters]
positions_m = (0.25, 0.25, 3.0); (0.25, 0.75, 3.0); (0.75, 0.25, 3.0); (0.75, 0.75, 3.0)

{SAFETY_CONFIG}"""


def grid_config(n: int) -> str:
    """n x n ceiling APs at 1 m pitch in an n m x n m room; users default to one under each AP."""
    positions = "; ".join(f"({x + 0.5}, {y + 0.5}, 3.0)" for x in range(n) for y in range(n))
    return (
        f"[room]\nwidth_m = {float(n)}\nlength_m = {float(n)}\n\n"
        f"[transmitters]\npositions_m = {positions}\n\n{SAFETY_CONFIG}"
    )


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Round:
    """Timed operations of one round and what the checks found."""

    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    points: int = 0
    infeasible: int = 0
    failed: int = 0
    max_rel_diff: float = 0.0
    errors: list[str] = field(default_factory=list)

    def timed(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.latencies.append(end - start)

    def check(self, errors: list[str], rel_diff: float) -> None:
        self.max_rel_diff = max(self.max_rel_diff, rel_diff)
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def rel_diff(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(ref)) or ref == 0.0:
        return math.inf
    return abs(got - ref) / abs(ref)


def compare_text(got: str, ref: str, where: str) -> tuple[list[str], float]:
    """Line- and comma-wise comparison: numbers within REL_TOL, other tokens exactly."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return [f"{where}: {len(got_lines)} lines, reference has {len(ref_lines)}"], 0.0
    worst = 0.0
    for number, (g_line, r_line) in enumerate(zip(got_lines, ref_lines), 1):
        g_tokens, r_tokens = g_line.split(","), r_line.split(",")
        if len(g_tokens) != len(r_tokens):
            return [f"{where}:{number}: {g_line!r} != reference {r_line!r}"], worst
        for g, r in zip(g_tokens, r_tokens):
            if g == r:
                continue
            try:
                diff = rel_diff(float(g), float(r))
            except ValueError:
                return [f"{where}:{number}: {g!r} != reference {r!r}"], worst
            worst = max(worst, diff)
            if diff > REL_TOL:
                return [f"{where}:{number}: {g} differs from reference {r} by {diff:.3g}"], worst
    return [], worst


class CsvWorkload:
    """A workload whose operation writes the sweep CSVs into a directory."""

    name = ""
    config = ""
    points_per_op = 0
    spawns = False  # whether an operation starts a fresh interpreter

    def __init__(self, size: str, seed: int, reference: Path, tmp: Path):
        self.reference = reference / self.name
        self.out = tmp / "out"
        self.first_bytes: dict[str, bytes] | None = None
        self.ops = 0

    def check_outputs(self, round_: Round) -> None:
        errors: list[str] = []
        worst = 0.0
        written = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        expected = sorted(p.name for p in self.reference.glob("*.csv"))
        if sorted(written) != expected:
            errors.append(f"{self.name}: wrote {sorted(written)}, reference has {expected}")
        else:
            for name in expected:
                errs, diff = compare_text(
                    written[name].decode("utf-8"),
                    (self.reference / name).read_text(encoding="utf-8"),
                    f"{self.name}/{name}",
                )
                errors += errs
                worst = max(worst, diff)
        if self.first_bytes is None:
            self.first_bytes = written
        elif written != self.first_bytes:
            errors.append(f"{self.name}: outputs differ byte-wise from the run's first operation")
        round_.check(errors, worst)

    def run_round(self, layers, tracer, speed) -> Round:
        """One operation, timed by `speed`; the caller samples the host speed after the round."""
        shutil.rmtree(self.out, ignore_errors=True)
        round_ = Round(points=self.points_per_op)
        if tracer is not None:
            tracer.op = self.ops
        with tracer.span("op") if tracer is not None else nullcontext():
            ok = self.operation(layers, tracer, speed, round_)
        self.ops += 1
        if ok:
            self.check_outputs(round_)
        return round_


class CliDefault(CsvWorkload):
    """One operation is one `python -m vcselnet --config <ini> --out <dir>` process."""

    name = "cli_default"
    config = SAFETY_CONFIG
    spawns = True

    def __init__(self, size, seed, reference, tmp):
        super().__init__(size, seed, reference, tmp)
        # README quickstart defaults: 8 waists x 2 lens modes.
        self.extra = [] if size == "full" else ["--steps", "2"]
        self.points_per_op = (8 if size == "full" else 2) * 2
        self.config_path = tmp / "scene.ini"
        self.config_path.write_text(self.config, encoding="utf-8")
        self.trace_path = tmp / "cli_trace.json"

    def command(self, out: Path, traced: bool) -> list[str]:
        if traced:
            prefix = [sys.executable, str(HERE / "tracing.py"), str(self.trace_path)]
        else:
            prefix = [sys.executable, "-m", "vcselnet"]
        return prefix + ["--config", str(self.config_path), "--out", str(out), *self.extra]

    def operation(self, layers, tracer, speed, round_: Round) -> bool:
        with speed.timing(round_):
            proc = subprocess.run(
                self.command(self.out, tracer is not None),
                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        if tracer is not None:
            tracer.absorb(json.loads(self.trace_path.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            round_.check([f"cli exited {proc.returncode}: {proc.stderr.strip()}"], 0.0)
            return False
        return True

    def warm_up(self) -> None:
        # Also compiles the package's bytecode in a fresh checkout.
        subprocess.run(self.command(self.out, False), env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def write_reference(self, ref_dir: Path) -> None:
        subprocess.run(self.command(ref_dir / self.name, False), env=child_env(),
                       stdout=subprocess.DEVNULL, check=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class GridSweep(CsvWorkload):
    """One operation is one in-process run_sweep plus emit_outputs on an AP grid."""

    name = "grid_sweep"

    def __init__(self, size, seed, reference, tmp):
        super().__init__(size, seed, reference, tmp)
        self.config = grid_config(8 if size == "full" else 2)
        self.scene = load_scene(self.config)
        self.spec = SweepSpec(waist_start=1e-6, waist_end=8e-6, steps=2)  # {1, 8} um x 2 lens modes
        self.points_per_op = 4

    def operation(self, layers, tracer, speed, round_: Round) -> bool:
        with speed.timing(round_):
            layers.emit_outputs(layers.run_sweep(self.scene, self.spec), self.out)
        return True

    def warm_up(self) -> None:
        vcselnet.run_sweep(load_scene(COMPACT_CONFIG), SweepSpec(steps=2))

    def write_reference(self, ref_dir: Path) -> None:
        vcselnet.emit_outputs(vcselnet.run_sweep(self.scene, self.spec), ref_dir / self.name)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RandomSeeds:
    """One operation is one randomly placed point, built from the public calls in run_sweep's order.

    One round is every (placement seed, waist, lens) point of a fixed pool of
    placement seeds, whose outcomes are stored in the reference; the benchmark
    seed shuffles the order of the points. Every run thus does the same work
    and meets the same infeasible points, whatever its seed. Only the layer
    calls of a point are timed: its scene is configured beforehand, as input,
    and its outcome is digested and checked afterwards.
    """

    name = "random_seeds"
    config = COMPACT_CONFIG
    spawns = False

    def __init__(self, size, seed, reference, tmp):
        if size == "full":
            self.waists = (1e-6, 1.5e-6, 2e-6, 3e-6, 4e-6, 6e-6, 8e-6)
            self.pool = 24
        else:
            self.waists, self.pool = (1e-6, 8e-6), 2
        self.scene = load_scene(self.config)
        self.scenes = {(waist, mode): self.configure(waist, mode)
                       for waist in self.waists for mode in ("off", "on")}
        self.order = list(self.points(range(self.pool)))
        np.random.default_rng(seed).shuffle(self.order)
        path = reference / f"{self.name}.json"
        self.reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
        self.digests: dict[str, str] = {}
        self.ops = 0

    def points(self, placements):
        for seed in placements:
            for w_idx, waist in enumerate(self.waists):
                for mode in ("off", "on"):
                    yield f"{seed}:{w_idx}:{mode}", seed, waist, mode

    def configure(self, waist: float, mode: str):
        """The scene run_sweep evaluates at this point: every AP at `waist`, cap-powered."""
        scene = self.scene
        aps = tuple(
            replace(ap, beam=replace(ap.beam, w0=waist),
                    lens=scene.lens_design if mode == "on" else None, per_vcsel_power=None)
            for ap in scene.aps
        )
        return replace(scene, aps=aps)

    def evaluate(self, layers, seed: int, waist: float, mode: str):
        """The point's channel, and its precoder and link report or the precoder's error."""
        scene = layers.place_users(self.scenes[waist, mode], len(self.scene.users), seed)
        caps = np.array([
            ap.array_n**2 * layers.max_safe_power(ap.beam, scene.safety, ap.lens).p_max
            for ap in scene.aps
        ])
        h = layers.build_channel_matrix(scene)
        try:
            precoder = layers.zf_precoder(h, caps)
        except (SingularChannelError, InfeasibleError) as exc:
            return h, exc, None
        return h, precoder, layers.link_report(scene, h, precoder, "shannon")

    @staticmethod
    def outcome(h, precoder, report) -> tuple[list, str]:
        """Outcome (["ok", sum rate, EE, min SNR dB, beta] or [error class]) and its digest.

        Takes what evaluate returns: without a report, `precoder` is the precoder's error.
        """
        digest = hashlib.sha256(h.gains.tobytes())
        if report is None:
            outcome = [type(precoder).__name__]
            digest.update(str(precoder).encode())
        else:
            snr = min(link.snr for link in report.per_user)
            outcome = ["ok", report.sum_rate, report.energy_efficiency,
                       10.0 * math.log10(snr) if snr > 0 else -math.inf, precoder.beta]
            digest.update(precoder.g.tobytes())
        digest.update(repr(outcome).encode())
        return outcome, digest.hexdigest()

    def warm_up(self) -> None:
        layers = plain_layers()
        for _, seed, waist, mode in self.order[: len(self.waists) * 2]:
            self.evaluate(layers, seed, waist, mode)

    def run_round(self, layers, tracer, speed) -> Round:
        round_ = Round()
        for key, seed, waist, mode in self.order:
            if tracer is not None:
                tracer.op = self.ops
            span = tracer.span("sweep.point") if tracer is not None else nullcontext()
            with span, speed.timing(round_):
                point = self.evaluate(layers, seed, waist, mode)
            outcome, digest = self.outcome(*point)
            self.ops += 1
            round_.points += 1
            round_.infeasible += outcome[0] != "ok"
            round_.check(*self.check_point(key, outcome, digest))
            speed.sample_if_due()
        return round_

    def check_point(self, key: str, outcome: list, digest: str) -> tuple[list[str], float]:
        errors: list[str] = []
        worst = 0.0
        ref = self.reference["points"][key]
        if outcome[0] != ref[0] or len(outcome) != len(ref):
            errors.append(f"{self.name} {key}: outcome {outcome[0]}, reference {ref[0]}")
        else:
            for got, want in zip(outcome[1:], ref[1:]):
                diff = rel_diff(got, want)
                worst = max(worst, diff)
                if diff > REL_TOL:
                    errors.append(f"{self.name} {key}: {got!r} differs from reference {want!r} by {diff:.3g}")
        if self.digests.setdefault(key, digest) != digest:
            errors.append(f"{self.name} {key}: repeat differs byte-wise from the first evaluation")
        return errors, worst

    def write_reference(self, ref_dir: Path) -> None:
        layers = plain_layers()
        points = {key: self.outcome(*self.evaluate(layers, seed, waist, mode))[0]
                  for key, seed, waist, mode in self.points(range(self.pool))}
        # One point per line, so a regenerated reference diffs point by point.
        lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in points.items()]
        text = (f'{{"waists_m": {json.dumps(self.waists)}, "pool": {self.pool}, "points": {{\n'
                + ",\n".join(lines) + "\n}}\n")
        (ref_dir / f"{self.name}.json").write_text(text, encoding="utf-8")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliDefault, GridSweep, RandomSeeds)}
