"""Tests of the benchmark itself: BENCHMARK.json schema and smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = {"setup_s": "s", "accept_s": "s", "peak_rss_mib": "MiB"}


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_keys_and_limits(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert manifest["paths"] == ["perfbench"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_bounds(manifest):
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert UNIT.fullmatch(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_manifest_matches_code(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(specs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == tracing.LAYER_METRICS


def test_fastest_parts():
    # Parts 0.5/2.0 and 1.0/1.0 with 0.5 and 1.0 outside them.
    runs = [(3.0, [0.5, 2.0]), (3.0, [1.0, 1.0])]
    assert bench.fastest_parts(runs) == 0.5 + 0.5 + 1.0
    assert bench.fastest_parts([(2.0, [1.5])]) == 2.0


def test_loop_repeats_the_equal_pair():
    pairs = specs.CERTIFY_SPECS["exact-k2-n6"].loop_pairs()
    assert [next(pairs) for _ in range(6)] == [0, 1, 0, 3, 0, 5]
    pairs = specs.CERTIFY_SPECS["trotter-n8"].loop_pairs()
    assert [next(pairs) for _ in range(3)] == [0, 0, 0]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = tracing.LAYER_METRICS if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)
        verdict = "verify_s" if workload == specs.VERIFY_WORKLOAD else "accept_s"
        for name in ("setup_s", verdict, "peak_rss_mib", "fail_ratio"):
            assert f"\n{name}: " in proc.stdout


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = _run("--workload", "exact-k2-n6", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["exact-k2-n6", "trotter-n8"])
def test_trace_counts_repeat(workload):
    counts = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["certifier.rounds"] > 0
