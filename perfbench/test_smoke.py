"""Smoke test of the benchmark at tiny sizes; it asserts nothing about timing.

Checks that every metric named in BENCHMARK.json prints with its unit, that a
perturbed reference makes the correctness check fail, and that the benchmark
refuses to run without the package's sources. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, script="perfbench/run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def copy_benchmark(dest: Path) -> Path:
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench"


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, kind):
    proc = run_bench(workload, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert math.isfinite(value)
        assert f"{name} = {value!r} {unit}" in proc.stdout


def _perturb(ref_dir: Path, workload: str) -> None:
    """Scale one reference value per point or file by 1 + 1e-6, far above the 1e-8 tolerance."""
    if workload == "random_seeds":
        path = ref_dir / "random_seeds.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        for outcome in doc["points"].values():
            if outcome[0] == "ok":
                outcome[1] *= 1 + 1e-6
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        path = ref_dir / workload / "results.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        tokens = lines[2].split(",")
        tokens[3] = repr(float(tokens[3]) * (1 + 1e-6))
        lines[2] = ",".join(tokens)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_check(tmp_path, workload):
    bench = copy_benchmark(tmp_path)
    _perturb(bench / "reference" / "tiny", workload)
    result = result_of(run_bench(workload, 0, script=bench / "run.py"))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy_benchmark(tmp_path)
    proc = run_bench("random_seeds", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
