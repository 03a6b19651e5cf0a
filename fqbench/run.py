#!/usr/bin/env python3
"""Build and run the FRESQUE benchmark.

One run:
    python3 fqbench/run.py --workload ingest-nasa --seed 1 --seconds 40 --trace 0

builds the library in ../src together with the benchmark binary (CMake,
Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload and
passes its output through: a run-record line, then one JSON line with
`correct`, `attempted`, `failed` and `metrics`.

Other modes:
    --self-test          oracle tests, including tampered results
    --self-check N       N seeded runs of each workload (or of --workload),
                         with median, quartiles and spread of every
                         end-to-end metric against its bound in
                         BENCHMARK.json

Must be started from the root of a checkout (the directory holding
BENCHMARK.json); everything it writes stays under that directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = ".bench_work"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("fqbench: no FRESQUE sources (src/) next to " + BENCH_DIR,
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "fqbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("fqbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "fqbench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(binary, args, capture):
    env = dict(os.environ, FQBENCH_GIT_SHA=git_sha())
    cmd = [binary] + args + ["--work-dir", WORK_DIR]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True)
    return subprocess.run(cmd, cwd=ROOT, env=env)


def self_check(binary, workloads, n, seconds):
    """Runs each workload n times with seeds 1..n; prints the spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, n + 1):
            r = run_binary(binary, ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                           capture=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (w, seed, r.returncode,
                                                   r.stderr[-2000:]))
                ok = False
                continue
            res = json.loads(lines[-1])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in sorted(res["metrics"].items()))), flush=True)
            ok = ok and res["correct"]
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print("== %s: %d runs, failed shares %s" % (w, n, sorted(shares)))
        print("%-28s %12s %12s %12s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[name] / 3:
                flag = "  over bound/3"
            print("%-28s %12.5g %12.5g %12.5g %8.3f %6.2f%s" %
                  (name, q1, med, q3, spread, bounds[name], flag))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--self-check", type=int, metavar="N")
    a = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    if a.self_test:
        return run_binary(binary, ["--self-test"], capture=False).returncode
    if a.self_check:
        names = [a.workload] if a.workload else [
            w["name"] for w in json.load(
                open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]
        return self_check(binary, names, a.self_check, a.seconds)
    if not a.workload:
        p.error("--workload is required")
    sys.stdout.flush()
    return run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", repr(a.seconds),
                               "--trace", str(a.trace)],
                      capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
