"""tools/bench.py with its subprocess runs faked: failed runs are recorded, not fatal."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAILING = {("w2", 2, 0), ("w1", 1, 1)}  # (workload, seed, trace) of the runs that exit 1


def fake_run(cmd, check=False, **kwargs):
    if "pytest" in cmd:
        return subprocess.CompletedProcess(cmd, 0, "7 passed in 1.00s\n", "")
    workload = cmd[cmd.index("--workload") + 1]
    seed, trace = int(cmd[cmd.index("--seed") + 1]), int(cmd[cmd.index("--trace") + 1])
    if (workload, seed, trace) in FAILING:
        stderr = "x" * 5000 + "\nValueError: boom\n"
        if check:
            raise subprocess.CalledProcessError(1, cmd, "", stderr)
        return subprocess.CompletedProcess(cmd, 1, "", stderr)
    prov = {"src_lines": 2145, "commit": "abc", "workload": workload, "seed": seed,
            "trace": trace, "repetitions": 3}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 0.1 * seed, "unit": "s"}}}
    stdout = f"provenance {json.dumps(prov)}\n{workload} seed {seed}: 3 jobs\n{json.dumps(result)}\n"
    return subprocess.CompletedProcess(cmd, 0, stdout, "")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench.py puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    return module


def test_failed_runs_are_written_to_the_file_and_exit_1(bench, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w1"}, {"name": "w2"}]}))
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--label", "t"]) == 1
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    failed = sorted((r["workload"], r["seed"], r["trace"]) for r in doc["failed_runs"])
    assert failed == sorted(FAILING)
    for record in doc["failed_runs"]:
        assert record["exit_code"] == 1
        assert record["stderr_tail"].endswith("ValueError: boom\n")
        assert len(record["stderr_tail"]) == bench.STDERR_TAIL
    # summaries over the seeds that finished
    assert sorted(doc["end_to_end"]["w2"]["per_seed"]) == ["1", "3"]
    assert doc["end_to_end"]["w2"]["summary"]["wall_s"]["median"] == pytest.approx(0.2)
    assert sorted(doc["end_to_end"]["w1"]["per_seed"]) == ["1", "2", "3"]
    assert sorted(doc["per_layer"]) == ["w2"]
    assert doc["src_lines"] == 2145 and doc["tier1"]["passed"] == 7
