#!/usr/bin/env python3
"""Build and run the rootless benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
`rootbench` program (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build). Each run prints the metric table,
writes the full result (machine stamp, layer table, spans) to
.bench_out/<workload>-seed<N>-trace<T>.json, and ends its standard output with
one JSON line: {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = 2


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds rootbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rootless sources at %s/src: run from a full checkout" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "rootbench")


def run_rootbench(binary, workload, seed, seconds, trace, corrupt=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result" % workload)


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def machine_stamp(result):
    info = result["info"]
    return {
        "cores": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "git_describe": git_describe(),
        "workload": result["workload"],
        "seed": result["seed"],
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def contract_metrics(spec, result, trace):
    """The BENCHMARK.json metric set for this mode, with its units checked."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = result["metrics"]
    out = {}
    for metric in wanted:
        name = metric["name"]
        entry = have.get(name)
        if entry is None or entry["value"] is None or not math.isfinite(entry["value"]):
            fail("metric %s missing from the %s result" % (name, result["workload"]))
        if entry["unit"] != metric["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, entry["unit"], metric["unit"]))
        out[name] = {"value": entry["value"], "unit": entry["unit"]}
    return out


def print_table(result):
    print("%s seed %d trace %d: correct=%s attempted=%d failed=%d" % (
        result["workload"], result["seed"], result["trace"], result["correct"],
        result["attempted"], result["failed"]))
    for failure in result["failures"]:
        print("  FAILED: " + failure)
    for warning in result["warnings"]:
        print("  INVALID MEASUREMENT: " + warning)
    for name, entry in result["metrics"].items():
        print("  %-40s %16.6g %s" % (name, entry["value"], entry["unit"]))
    rows = result["layers"]["rows"]
    if rows:
        total = result["layers"]["total_ns_per_query"]
        print("  layers (CPU ns per query, total %.1f):" % total)
        for row in rows:
            print("    %-30s %10.1f  %5.1f%%  %s" % (
                row["name"], row["ns_per_query"], 100 * row["ns_per_query"] / total,
                row["source"]))


def save(result, stamp):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result = dict(result, machine=stamp)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], result["trace"]))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


def selftest(spec):
    """Every workload briefly, both modes: every BENCHMARK.json name is
    emitted with its unit; a corrupted reference answer fails the run."""
    binary = build()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_rootbench(binary, workload, 1, SELFTEST_SECONDS, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                entry = result["metrics"].get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append("%s trace %d: %s missing or wrong unit"
                                    % (workload, trace, metric["name"]))
            if not result["correct"]:
                problems.append("%s trace %d: clean run not correct: %s"
                                % (workload, trace, result["failures"]))
            print("selftest: %s trace %d ok=%s" % (workload, trace, result["correct"]))
    corrupted = run_rootbench(binary, spec["workloads"][0]["name"], 1, 1, 0, corrupt=True)
    if corrupted["correct"] or corrupted["failed"] == 0:
        problems.append("a corrupted reference answer was not reported as failed")
    else:
        print("selftest: corrupted reference caught (%d failed queries)"
              % corrupted["failed"])
    for problem in problems:
        print("selftest FAILED: " + problem)
    print(json.dumps({"selftest": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    binary = build()
    result = run_rootbench(binary, args.workload, args.seed, seconds, args.trace)
    metrics = contract_metrics(spec, result, args.trace)
    print_table(result)
    print("  full result: " + save(result, machine_stamp(result)))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
