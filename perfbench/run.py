#!/usr/bin/env python3
"""IS-ASGD benchmark: one workload per invocation.

    python3 perfbench/run.py --workload is_asgd-inmem --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the library and the driver under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's inputs from --seed once under .bench_data/ (reused by later runs
with the same seed), runs the measured driver process with its output
checks, and prints one JSON object as the last line of stdout. --trace 1 prints the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace to .bench_data/traces/.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("is_asgd-inmem", "asgd-packed", "ps-tcp")
DATA_ROOT = ".bench_data"
KEEP_INPUTS = 2  # input sets kept per workload (most recent first)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=1200)
    return os.path.join(bdir, "perfbench_driver")


def inputs(driver, workload, seed):
    """The workload's inputs for `seed`, generated once and then reused."""
    # The workload specs, the value rounding and the library's generator
    # live in these files; a change to any makes new inputs instead of
    # reusing stale ones.
    h = hashlib.sha1()
    for name in ("rows.hpp", "driver.cpp", "../src/data/synthetic.cpp",
                 "../src/data/paper_datasets.cpp"):
        with open(os.path.join(HERE, name), "rb") as f:
            h.update(f.read())
    out = os.path.join(DATA_ROOT, f"{workload}-{seed}-{h.hexdigest()[:10]}")
    if os.path.isdir(out):
        os.utime(out)
        return out
    os.makedirs(DATA_ROOT, exist_ok=True)
    prefix = f"{workload}-"
    old = sorted((d for d in os.listdir(DATA_ROOT) if d.startswith(prefix)),
                 key=lambda d: os.path.getmtime(os.path.join(DATA_ROOT, d)), reverse=True)
    for d in old[KEEP_INPUTS - 1:]:
        shutil.rmtree(os.path.join(DATA_ROOT, d), ignore_errors=True)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    subprocess.run([driver, "gen", "--workload", workload, "--seed", str(seed), "--out", tmp],
                   check=True, timeout=170)
    # Write the inputs back now, so that the kernel does not flush them
    # during the measured run that follows.
    for name in os.listdir(tmp):
        fd = os.open(os.path.join(tmp, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    os.replace(tmp, out)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that every output check rejects a corrupted value")
    ap.add_argument("--probe", action="store_true",
                    help="also print each trial's fence objectives (target derivation)")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    driver = build()
    if args.selftest:
        return subprocess.run([driver, "selftest"], timeout=170).returncode

    data = inputs(driver, args.workload, args.seed)
    cmd = [driver, "run", "--workload", args.workload, "--data", data,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(DATA_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.probe:
        cmd += ["--probe", "1"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    result = None
    for line in run.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if run.returncode != 0 or result is None:
        log(f"driver run failed (exit {run.returncode})")
        return 1
    errors = result["errors"]
    for e in errors:
        log(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        sys.exit(1)
