#!/usr/bin/env python3
"""The repository benchmark: builds perfbench + cloudcached, runs a workload.

Run from the root of a cloudcache checkout:

    python3 perfbench/run.py --workload paper-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --small    # every workload at small size, self-checked

The build goes to .bench_build/ (Release, via perfbench/CMakeLists.txt);
build output goes to stderr. The last line of stdout is the result JSON of
the perfbench binary; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SERVER = os.path.join(BUILD_DIR, "cloudcache", "tools", "cloudcached")
RUN_TIMEOUT_S = 170
WORKLOADS = ["paper-steady", "elastic-churn", "served-tenants"]


def build():
    """Configures (once) and builds the benchmark package; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "cloudcached"])
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, env=env)
        except OSError as error:
            print(f"run.py: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run(workload, seed, seconds, trace, small=False, capture=False):
    """Runs the binary once; returns (exit code, stdout, stderr)."""
    work_dir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    command = [BINARY, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--server={SERVER}", f"--work-dir={work_dir}"]
    if small:
        command.append("--small")
    pipe = subprocess.PIPE if capture else None
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=pipe, stderr=pipe,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 1, "", ""
    return done.returncode, done.stdout or "", done.stderr or ""


def check_result(trace, code, out, err, spec):
    """Problems with one small run's output, as a list of strings."""
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no result JSON (exit {code}); stderr: {err[-2000:]}"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true: " +
                        "; ".join(l for l in lines if l.startswith("CHECK")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append(f"metrics missing {sorted(names - set(metrics))}, "
                        f"extra {sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(
                f"{m['name']} unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(
                f"{m['name']} reads {value}; end-to-end must be > 0")
    # Nothing may outlive the run: no work directory, no server process.
    leftovers = [d for d in os.listdir(BUILD_DIR) if d.startswith("run-")]
    if leftovers:
        problems.append(f"left behind {leftovers}")
    for line in err.splitlines():
        if "spawned cloudcached pid" in line:
            pid = int(line.rsplit(" ", 1)[1])
            try:
                os.kill(pid, 0)
                problems.append(f"cloudcached pid {pid} still running")
            except ProcessLookupError:
                pass
    return problems


def self_check(workloads):
    """Every workload at small size, trace 0 and 1, against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            code, out, err = run(workload, 1, 1, trace, small=True,
                                 capture=True)
            problems = check_result(trace, code, out, err, spec)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(problems)
    print("self-check passed" if failures == 0 else
          f"self-check: {failures} run(s) failed")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="small-size self-check of every workload (or "
                             "of --workload)")
    args = parser.parse_args()
    if not args.small and args.workload is None:
        parser.error("--workload is required (or use --small)")
    if not build():
        return 2
    if args.small:
        return self_check([args.workload] if args.workload else WORKLOADS)
    code, _, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
