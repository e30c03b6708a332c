"""Smoke check of the benchmark harness, kept out of the Tier-1 suite.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and traced,
and checks that the last line carries every named metric with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_alias_check_flags_a_binding_left_unwrapped():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import shufflesim.runner
        import shufflesim.simon
        from tracing import Tracer

        original = shufflesim.simon.sample_simon
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.unwrapped_aliases() == []
            assert shufflesim.runner.sample_simon is shufflesim.simon.sample_simon is not original
            shufflesim.runner.stale_alias = original
            assert tracer.unwrapped_aliases() == ["shufflesim.runner.stale_alias"]
        finally:
            del shufflesim.runner.stale_alias
            tracer.uninstall()
        assert shufflesim.runner.sample_simon is original
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))
