#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout.  Builds perfbench/ (Release) into
.bench_build/perfbench, runs the tiny-scale self-check after every build,
then runs the measuring binary single-threaded (AFT_THREADS=1) with the
default flight recorder.  With --trace 1 it also compares the default
flight recorder against AFT_FLIGHT=0 in pairs of short untraced processes
and adds obs.flight_cost_frac.  The last line of stdout is the result JSON.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
FLIGHT_LOG = os.path.join(ROOT, ".bench_build", "flight.jsonl")
WORKLOADS = ("traffic_overload", "traffic_faults", "memory_adaptive",
             "organ_inproc")
# Whole-run limit for any child process; the contract allows 180 s.
CHILD_TIMEOUT_S = 170
# Flight-on/flight-off process pairs: up to FLIGHT_PAIRS, as many as fit in
# twice --seconds, but at least FLIGHT_MIN_PAIRS.  A process measures at
# least four whole runs, so a pair of memory_adaptive processes takes about
# ten seconds and twelve pairs would overrun the 180 s a run may take.
FLIGHT_PAIRS = 12
FLIGHT_MIN_PAIRS = 4
FLIGHT_PAIR_SECONDS = 1  # measured seconds per process of a pair


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds; returns True when the binary changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], "build")
    if not os.path.exists(BINARY):
        fail("build produced no binary", 1)
    return before is None or os.path.getmtime(BINARY) != before


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(what + " failed", 1)


def bench_env(flight_off=False):
    env = dict(os.environ)
    env["AFT_THREADS"] = "1"
    for var in ("AFT_FLIGHT", "AFT_FORCE_PORTABLE", "AFT_TRACE"):
        env.pop(var, None)
    if flight_off:
        env["AFT_FLIGHT"] = "0"
    # Black-box dumps (discriminator suspensions) go to a file in the build
    # directory instead of stderr.
    env["AFT_FLIGHT_PATH"] = FLIGHT_LOG
    return env


def run_binary(args, flight_off=False, cpu=None):
    """Runs the binary, on one CPU if `cpu` is given; returns (exit code,
    report lines, result dict)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              env=bench_env(flight_off), preexec_fn=pin,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measurement did not finish in %d s" % CHILD_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("binary printed nothing (exit %d)" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("binary's last line is not JSON (exit %d)" % proc.returncode, 1)
    return proc.returncode, lines[:-1], result


def flight_cost(workload, seed, budget_s):
    """Share of wall time the default flight recorder costs: 1 - ops/s with
    the default ring over ops/s with AFT_FLIGHT=0.  Each pair runs the two
    settings back to back on one CPU, in alternating order; the pairs go
    round the CPUs.  Returns the median of the per-pair figures and the
    number of pairs."""
    cpus = sorted(os.sched_getaffinity(0))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(FLIGHT_PAIR_SECONDS), "--trace", "0"]
    deadline = time.monotonic() + budget_s
    costs = []
    for i in range(FLIGHT_PAIRS):
        if i >= FLIGHT_MIN_PAIRS and time.monotonic() > deadline:
            break
        ops = {}
        for flight_off in ((False, True) if i % 2 == 0 else (True, False)):
            code, _, res = run_binary(args, flight_off, cpus[i % len(cpus)])
            if code != 0 or not res.get("correct"):
                fail("flight-cost run failed validation", 1)
            ops[flight_off] = res["metrics"]["ops_per_s"]["value"]
        costs.append(1.0 - ops[False] / ops[True])
    return statistics.median(costs), len(costs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not a.selfcheck and a.workload is None:
        p.error("--workload is required")

    rebuilt = build()
    open(FLIGHT_LOG, "w").close()
    if rebuilt or a.selfcheck:
        proc = subprocess.run([BINARY, "--selfcheck"], cwd=ROOT,
                              env=bench_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        (sys.stdout if a.selfcheck else sys.stderr).write(proc.stdout)
        if proc.returncode != 0:
            fail("self-check failed", 1)
        if a.selfcheck:
            return 0

    started = time.monotonic()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        args += ["--spans", os.path.join(
            os.path.dirname(FLIGHT_LOG),
            "spans-%s-%d.csv" % (a.workload, a.seed))]
    code, report, result = run_binary(args)
    for line in report:
        print(line)
    if code != 0 or not result.get("correct"):
        result["correct"] = False
        print(json.dumps(result))
        return 1
    if a.trace == 1:
        frac, pairs = flight_cost(a.workload, a.seed, 2 * a.seconds)
        result["metrics"]["obs.flight_cost_frac"] = {"value": frac,
                                                     "unit": "ratio"}
        print("  obs.flight_cost_frac = %.6g (default AFT_FLIGHT vs "
              "AFT_FLIGHT=0, median of %d same-CPU process pairs of %g s)"
              % (frac, pairs, FLIGHT_PAIR_SECONDS))
    print("[provenance] workload %s, seed %d, Release build, AFT_THREADS=1, "
          "default AFT_FLIGHT, tracing %s, %.1f s"
          % (a.workload, a.seed, "on" if a.trace else "off",
             time.monotonic() - started))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
