#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root. Checks that:
  - a tiny run of every workload, untraced and traced, passes its output
    checks and emits exactly the metrics BENCHMARK.json declares, each with
    its unit;
  - each output check fires on a deliberately perturbed output: an MI cell,
    a dropped table entry, a wrong wire answer;
  - in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark fails with the "benchmark broke" status 2, without printing a
    result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def run(*extra, cwd=ROOT, seconds="2"):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--seed", "7", "--seconds", seconds, *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr[-3000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    run_info = next(json.loads(l)["run"] for l in lines if l.startswith('{"run"'))
    return result, run_info


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"]
                  for m in spec["per_layer" if trace else "end_to_end"]}


def test_smoke():
    spec, _ = declared(0)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run("--workload", workload, "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
            result, _ = result_of(proc)
            _, expected = declared(trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected, (workload, trace, units)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            print(f"ok   smoke {workload} trace={trace}")


def test_mutations():
    cases = {"mi": "learn.mi_parallel_equals_p1",
             "table": "core.table_equals_sequential",
             "wire": "serve.wire_equals_engine"}
    for mutation, check in cases.items():
        proc = run("--workload", "alarm-learn", "--trace", "0", "--tiny",
                   "--mutate", mutation)
        assert proc.returncode == 1, (mutation, proc.returncode, proc.stderr)
        result, run_info = result_of(proc)
        assert not result["correct"] and result["failed"] >= 1, result
        assert check in run_info["failed_checks"], (mutation, run_info)
        print(f"ok   mutation {mutation} caught by {check}")


def test_bare_directory():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bare = os.path.join(out, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alarm-learn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr[-2000:])
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok   bare directory fails without a result")


if __name__ == "__main__":
    test_smoke()
    test_mutations()
    test_bare_directory()
    print("all self-tests passed")
