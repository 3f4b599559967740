#!/usr/bin/env python3
"""End-to-end benchmark of wfbn: builds the harness from source, runs one
workload, checks its outputs and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; so do the serve stage's store
files, which are removed at the end of the run. Standard output ends with:

    {"host": {...}}                  machine, build and run metadata
    {"run": {...}}                   what ran, generator lateness, checks
    {"layers": {...}}                traced runs: layer -> metric mapping
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed and no operation failed, 1
when a check failed or an operation failed, 2 when the benchmark itself
broke: the build, a harness crash or signal, a timeout, or a metric set
that differs from BENCHMARK.json (then no result line is printed).
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
BROKEN = 2  # exit status when the benchmark itself broke


def broken(message):
    sys.stderr.write(message + "\n")
    sys.exit(BROKEN)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures once, then builds (a no-op when nothing changed)."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4",
                    "--target", "wfbn_perfbench"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(cmake_dir, "wfbn_perfbench")


def read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs, from /proc/stat; zeros elsewhere."""
    fields = read("/proc/stat", "cpu 0").splitlines()[0].split()[1:]
    values = [int(v) for v in fields[:8]] + [0] * (8 - len(fields[:8]))
    return values[7], sum(values)


def host_metadata(seed):
    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, index, "level"))
        kind = read(os.path.join(base, index, "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches["L" + level] = read(os.path.join(base, index, "size"))
    thp = read("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp[thp.index("[") + 1:thp.index("]")]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "thp": thp, "kernel": platform.release(), "commit": commit,
            "seed": seed}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-tests)")
    parser.add_argument("--mutate", choices=("mi", "table", "wire"),
                        help="break one output check's input (self-tests)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(out_dir, "run")]
    if args.tiny:
        command.append("--tiny")
    if args.mutate:
        command += ["--mutate", args.mutate]
    steal_0, total_0 = cpu_jiffies()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    steal_1, total_1 = cpu_jiffies()
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        broken(f"harness failed with status {proc.returncode}")
    run_info = json.loads(lines[-2])["run"]
    result = json.loads(lines[-1])

    expected = declared_metrics(args.trace)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        broken(f"metric set differs from BENCHMARK.json: emitted "
               f"{sorted(set(emitted.items()) ^ set(expected.items()))}")

    host = host_metadata(args.seed)
    for key in ("simd_level", "build_type", "mi_threshold"):
        host[key] = run_info.pop(key)
    host["nproc_online"] = run_info.pop("nproc")
    # Share of CPU time the hypervisor gave to other guests during the run.
    host["steal_share"] = round((steal_1 - steal_0) /
                                max(1, total_1 - total_0), 4)
    print(json.dumps({"host": host}))
    print(json.dumps({"run": run_info}))
    if args.trace:
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        shares = run_info["self_time_share"]
        dominant = max(shares, key=shares.get)
        expected_dominant = layers["dominant_layer"].get(args.workload)
        print(json.dumps({"layers": {
            "map": layers["map"], "dominant": dominant,
            "expected_dominant": expected_dominant,
            "split_confirmed": expected_dominant in (None, dominant)}}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    try:
        main()
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        broken(f"run.py: {type(e).__name__}: {e}")
