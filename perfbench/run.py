"""vcselnet benchmark: one workload, timed for a fixed span, with its outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cli_default,grid_sweep,random_seeds} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the run measures the end-to-end metrics with tracing off; their
times are scaled to a reference host speed (see HostSpeed). With
--trace 1 it alternates untraced and traced rounds and reports the per-layer
metrics instead; spans stay in memory and are written to
.perfbench_out/trace-<workload>-<seed>.json when the run ends. Both modes check
every operation against the reference in perfbench/reference/<size>/, made by
perfbench/make_reference.py. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Only the standard library and numpy are used. The BLAS thread count defaults
to 1 (an explicit OPENBLAS/OMP/MKL_NUM_THREADS setting is kept), so the load
generator is one process with one busy thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Typical reading of each speed probe on the machine the workloads were defined
# on: a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
LOOP_REF_S = 1.5e-3
SPAWN_REF_S = 0.15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = {"full": 7, "tiny": 2}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "points_per_s": "1/s",
    "point_ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.compute_s": "s",
    "scene.load_s": "s",
    "scene.place.calls": "count",
    "scene.place_us": "us",
    "eye_safety.calls": "count",
    "eye_safety.us_per_call": "us",
    "beam_optics.ns_per_node": "ns",
    "channel.calls": "count",
    "channel.busy_s": "s",
    "channel.links": "count",
    "channel.us_per_link": "us",
    "channel.share": "ratio",
    "channel.zero_gain_ratio": "ratio",
    "channel.unique_geometry_ratio": "ratio",
    "precoding.calls": "count",
    "precoding.busy_s": "s",
    "precoding.us_per_call": "us",
    "precoding.failed": "count",
    "precoding.failed.SingularChannelError": "count",
    "precoding.failed.InfeasibleError": "count",
    "link_budget.calls": "count",
    "link_budget.busy_s": "s",
    "link_budget.us_per_user": "us",
    "sweep.self_s": "s",
    "sweep.emit_s": "s",
    "sweep.bytes_written": "bytes",
    "sweep.max_rel_diff": "ratio",
    "trace_overhead_ratio": "ratio",
    "op_p50_traced_s": "s",
    "op_p50_untraced_s": "s",
}

# A fresh interpreter importing the package and loading the workload's config.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import vcselnet
t1 = time.perf_counter()
vcselnet.load_scene(open(sys.argv[1], encoding="utf-8").read())
print(t1 - t0, time.perf_counter() - t1)
"""


def calibration_loop() -> None:
    """Fixed interpreter and small-array numpy work, the workloads' mix, sharing no code with vcselnet."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for i in range(100):
        acc += float(np.exp(-x * (i % 7)).sum())
        acc += sum(j * 0.5 for j in range(100))


def loop_probe() -> float:
    """Seconds per calibration_loop, timed after one pass that refills the caches."""
    calibration_loop()
    start = time.perf_counter()
    calibration_loop()
    calibration_loop()
    return (time.perf_counter() - start) / 2


def spawn_probe() -> float:
    """Seconds for a fresh interpreter importing numpy: start-up that vcselnet cannot change."""
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True)
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed, sampled by timing a fixed probe during the run.

    The host is a VM whose speed swings by up to 2x over seconds as other
    tenants load it, so raw times of runs made minutes apart do not compare.
    Each end-to-end time is therefore scaled by the probe's reference time
    over its mean time within WINDOW_S of the operation, i.e. given at the
    reference machine's speed. In-process workloads run loop_probe between
    operations, and from a timer inside any operation once it has run
    LONG_OP_S, so the probe never lands in a short operation (where its cache
    misses would show in the latency tail) and a long one is still sampled
    throughout; operation times exclude the probe runs. Fresh interpreters
    are bracketed by spawn_probe, whose costs (process start, page faults)
    the in-process loop does not see. Raw times are printed beside the
    scaled ones.
    """

    WINDOW_S = 0.5
    INTERVAL_S = 0.25
    LONG_OP_S = 1.0

    def __init__(self, probe, ref_s: float):
        self.probe = probe
        self.ref_s = ref_s
        # (start, wall seconds, probe's own reading) of each probe run
        self.marks: list[tuple[float, float, float]] = []
        self.op_start: float | None = None  # start of the operation being timed

    def sample(self) -> None:
        start = time.perf_counter()
        reading = self.probe()
        self.marks.append((start, time.perf_counter() - start, reading))

    def sample_if_due(self) -> None:
        """Sample between operations, at most every INTERVAL_S."""
        if not self.marks or time.perf_counter() - self.marks[-1][0] >= self.INTERVAL_S:
            self.sample()

    @contextmanager
    def timing(self, round_):
        """Time one operation into `round_`."""
        self.op_start = time.perf_counter()
        try:
            yield
        finally:
            start, self.op_start = self.op_start, None
        round_.timed(start, time.perf_counter())

    def _sample_in_long_op(self, *_signal) -> None:
        start = self.op_start
        if start is not None and time.perf_counter() - start >= self.LONG_OP_S:
            self.sample()

    @contextmanager
    def sampling_inside_ops(self):
        """Sample every INTERVAL_S from a SIGALRM timer inside operations longer than LONG_OP_S."""
        previous = signal.signal(signal.SIGALRM, self._sample_in_long_op)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def own_time(self, start: float, duration: float) -> float:
        """`duration` seconds from `start`, less the probe runs inside them."""
        return duration - sum(wall for t, wall, _ in self.marks if start <= t < start + duration)

    def scaled(self, start: float, duration: float) -> float:
        """own_time at the reference speed."""
        near = [reading for t, _, reading in self.marks
                if start - self.WINDOW_S <= t < start + duration + self.WINDOW_S]
        if not near:
            near = [min(self.marks, key=lambda m: abs(m[0] - start))[2]]
        return self.own_time(start, duration) * self.ref_s / statistics.mean(near)

    def factors(self) -> list[float]:
        return [self.ref_s / reading for _, _, reading in self.marks]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_default", "grid_sweep", "random_seeds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def os_threads() -> int:
    """Threads of this process as the OS counts them (BLAS pools included)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _version(metadata, package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(root: Path, seed: int) -> dict:
    from importlib import metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": git_commit(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Not imported: that would add scipy to the memory of in-process workloads.
        "scipy": _version(metadata, "scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def measure_setup(config_text: str, tmp: Path, repeats: int, speed: HostSpeed):
    """(start, wall, import, load_scene) seconds of `repeats` fresh interpreters."""
    from workloads import child_env

    config = tmp / "setup.ini"
    config.write_text(config_text, encoding="utf-8")
    runs = []
    for _ in range(repeats):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=child_env(),
                              capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        import_s, load_s = (float(v) for v in proc.stdout.split())
        runs.append((start, wall, import_s, load_s))
    speed.sample()
    return runs


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples).

    With ten samples or fewer no such percentile exists and the maximum is given.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def beam_ns_per_node(repeats: int = 200) -> float:
    """beam_intensity for the default 8-mode beam on a 64 x 64 polar detector grid, per node."""
    import numpy as np

    from vcselnet import BeamSpec, beam_intensity

    beam = BeamSpec(w0=5e-6, wavelength=850e-9)
    x, _ = np.polynomial.legendre.leggauss(64)
    aperture, rho = math.sqrt(2e-4 / math.pi), 5e-3
    s = 0.5 * aperture * (x + 1.0)
    phi = math.pi * (x + 1.0)
    r = np.sqrt(rho**2 + s[:, None] ** 2 + 2.0 * rho * s[:, None] * np.cos(phi)[None, :])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        beam_intensity(r, 2.0, beam)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / r.size * 1e9


def run(args, root: Path, tmp: Path) -> int:
    import tracing
    from workloads import WORKLOADS

    reference = HERE / "reference" / args.size
    workload = WORKLOADS[args.workload](args.size, args.seed, reference, tmp)
    if not (reference / f"{args.workload}.json").is_file() and not (reference / args.workload).is_dir():
        print(f"perfbench: no reference for {args.workload} in {reference}", file=sys.stderr)
        return 2

    env = environment(root, args.seed)
    print("environment: " + json.dumps(env))
    workload.warm_up()
    spawn_speed = HostSpeed(spawn_probe, SPAWN_REF_S)
    setups = measure_setup(workload.config, tmp, SETUP_REPEATS[args.size], spawn_speed)

    tracer = tracing.Tracer() if args.trace else None
    plain = tracing.plain_layers()
    untraced, traced = [], []
    speed = spawn_speed if workload.spawns else HostSpeed(loop_probe, LOOP_REF_S)
    # A fresh interpreter is not probed while it runs; probes inside traced
    # spans would count as layer time.
    sampling = nullcontext()
    if not workload.spawns and not args.trace:
        speed.sample()
        sampling = speed.sampling_inside_ops()
    start = time.perf_counter()
    with sampling:
        while True:
            if args.trace and len(traced) < len(untraced):
                layers = tracing.instrument(tracer)
                try:
                    traced.append(workload.run_round(layers, tracer, speed))
                finally:
                    tracing.restore()
            else:
                untraced.append(workload.run_round(plain, None, speed))
            speed.sample_if_due()
            if time.perf_counter() - start >= args.seconds and len(traced) == len(untraced) * args.trace:
                break

    rounds = untraced + traced
    threads, nproc = os_threads(), os.cpu_count() or 1
    errors = [e for r in rounds for e in r.errors]
    if threads > nproc:
        errors.append(f"load generator runs {threads} threads on {nproc} CPUs")
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds) + (threads > nproc)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"operations: {attempted} attempted, {failed} failed the correctness check; "
          f"load generator: 1 process, {threads} threads, nproc {nproc}")

    raw_p50 = statistics.median(speed.own_time(t0, t) for r in untraced for t0, t in zip(r.starts, r.latencies))
    raw_setup = statistics.median(s[1] for s in setups)
    if not args.trace:
        latencies = [speed.scaled(t0, t) for r in untraced for t0, t in zip(r.starts, r.latencies)]
        points = sum(r.points for r in untraced)
        infeasible = sum(r.infeasible for r in untraced)
        tail_s, tail_pct, tail_n = tail(latencies)
        factors = speed.factors()
        metrics = {
            "setup_s": statistics.median(spawn_speed.scaled(t0, t) for t0, t, _, _ in setups),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "points_per_s": points / sum(latencies),
            "point_ok_ratio": (points - infeasible) / points,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters; raw {raw_setup!r} s",
            "op_p50_s": f"over {len(latencies)} operations; raw {raw_p50!r} s",
            "op_tail_s": f"p{tail_pct:.1f} of {tail_n} operations",
            "points_per_s": f"{points} points",
            "point_ok_ratio": f"{points - infeasible} of {points} points; "
                              f"point_fail_ratio {infeasible / points!r}",
        }
        print(f"times at reference speed; operations' speed factor median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} samples")
        units = END_TO_END
    else:
        traced_ops = sum(len(r.latencies) for r in traced)
        traced_p50 = statistics.median(speed.own_time(t0, t) for r in traced for t0, t in zip(r.starts, r.latencies))
        metrics = {
            "cli.import_s": statistics.median(s[2] for s in setups),
            "cli.compute_s": raw_p50 - raw_setup if args.workload == "cli_default" else 0.0,
            "scene.load_s": statistics.median(s[3] for s in setups),
            "beam_optics.ns_per_node": beam_ns_per_node(),
            **tracing.layer_metrics(tracer, traced_ops),
            "sweep.max_rel_diff": max(r.max_rel_diff for r in rounds),
            "trace_overhead_ratio": traced_p50 / raw_p50,
            "op_p50_traced_s": traced_p50,
            "op_p50_untraced_s": raw_p50,
        }
        notes = {"trace_overhead_ratio": f"{traced_p50!r} s traced / {raw_p50!r} s untraced"}
        units = PER_LAYER
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_file)
        print(f"spans of {traced_ops} traced operations: {trace_file}")

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {unit}{note}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "vcselnet"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: {package} not found; run from the root of a vcselnet checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(root / "src"))
    import vcselnet

    if Path(vcselnet.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported vcselnet from {vcselnet.__file__}, not {package}", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return run(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
