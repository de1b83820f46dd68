"""End-to-end test of the benchmark command at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q

Each case runs perfbench/run.py on a 0.3 s scene with 3 iterations and
checks the printed result against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--duration-s", "0.3", "--iterations", "3"]


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--trace", str(trace), *TINY, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace)
    lines, res = result(proc)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} = " in proc.stdout and f" {m['unit']}\n" in proc.stdout
    assert any(line.startswith("attempted = ") and "fail_rate = 0" in line for line in lines)
    if not trace:
        for name, unit in (("separate_s", "s"), ("separate_cpu_s", "s"),
                           ("iter_ms_p50", "ms"), ("sdr_improvement_db", "dB")):
            assert any(line.startswith(f"{name} = ") and f" {unit} " in line for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_output_counts_as_failure(trace):
    proc = bench(WORKLOADS[0], trace, "--corrupt-output")
    lines, res = result(proc)
    assert proc.returncode != 0
    assert res["correct"] is False and res["failed"] >= 1
    line = next(x for x in lines if x.startswith("attempted = "))
    assert float(line.rsplit("fail_rate = ", 1)[1]) > 0
    assert "non-finite" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
