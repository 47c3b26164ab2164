#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_run from source and runs one workload.

    python3 perfbench/run.py --workload place_mcts|place_large|serve_eco|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ (an
optimized CMake build of src/ plus perfbench/cpp/).  Each workload runs in
its own process; its metrics are printed one per line with units, and the
last line of standard output is the result object:

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of the traced decomposition.  The command
exits non-zero when an output check fails, when the program turns out to be
nondeterministic (the deterministic counters of an earlier run with the same
binary, workload, seed and trace flag differ), or when the build fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench_run")
WORKLOADS = ("place_mcts", "place_large", "serve_eco")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def local_env():
    """The environment for child processes, with temporary files kept in the
    checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the benchmark; returns False when that fails."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                      "--target", "perfbench_run"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=local_env())
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_id():
    """git commit when the checkout is a repository, else a source hash."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, env=env)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(file_digest(path).encode())
    return "sha256:" + h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_ledger(key, counters):
    """Deterministic counters must repeat exactly for equal binary, workload,
    seed and trace flag.  Returns the names that differ from the first run."""
    ledger_dir = os.path.join(BUILD, "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, key + ".json")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(counters, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path) as f:
        first = json.load(f)
    names = sorted(set(first) | set(counters))
    return [n for n in names if first.get(n) != counters.get(n)]


def run_workload(args):
    if not build():
        return 1
    work = os.path.join(BUILD, "work",
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=local_env())
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.monotonic() - started
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            detail = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if done.returncode != 0 or detail is None:
        log(f"{args.workload} failed (exit code {done.returncode})")
        return 1

    errors = list(detail["errors"])
    names = list(detail["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        errors.append(f"metric set {names} differs from BENCHMARK.json {want}")
    binary = file_digest(BINARY)[:16]
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{binary}"
    for name in check_ledger(key, detail["counters"]):
        errors.append(f"nondeterministic: counter {name} differs from the "
                      f"first run with this binary")

    provenance = {
        "source": source_id(),
        "binary_sha256": binary,
        "compiler": detail["info"].get("compiler"),
        "cxx_flags": detail["info"].get("cxx_flags", "").strip(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(wall, 3),
    }
    used = {k: v for k, v in detail["info"].items()
            if k not in ("compiler", "cxx_flags")}
    record = {"provenance": provenance, "run": used,
              "metrics": detail["metrics"], "counters": detail["counters"],
              "errors": errors, "violations": detail["violations"]}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{key}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("run " + json.dumps(used, sort_keys=True))
    for e in errors:
        print(f"error: {e}")
    correct = not errors and detail["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": detail["metrics"]}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
