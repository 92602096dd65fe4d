#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (libscript's layers from src/ plus perfbench/src) under
.bench_build/ (or $CARGO_TARGET_DIR); later runs only check that the
build is current. The benchmark binary prints its own metric names
(README.md); this script maps them onto the names in BENCHMARK.json and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Layers a workload does
not exercise report 0. Exit status 0 only when every check held.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("script_cycle", "lockdb_sim", "lockdb_tcp")
RUN_LIMIT_S = 170  # a run must finish within 180 s of host time

# BENCHMARK.json end-to-end name -> the binary's name, per workload.
E2E_NAMES = {
    "script_cycle": {
        "ops_per_s": "cycles_per_s",
        "main_op.p50_us": "cycle2.p50_us",
        "main_op.p99_us": "cycle2.p99_us",
        "side_op.p50_us": "cast64.p50_us",
        "side_op.p99_us": "cast64.p99_us",
    },
    "lockdb": {
        "ops_per_s": "txn_per_s",
        "main_op.p50_us": "txn_write.p50_us",
        "main_op.p99_us": "txn_write.p99_us",
        "side_op.p50_us": "txn_read.p50_us",
        "side_op.p99_us": "txn_read.p99_us",
    },
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build only the perfbench target."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            log("configuring " + build_dir)
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_binary(cmd, deadline):
    """Run the benchmark in its own process group; kill the whole group
    (replica processes included) on timeout or when we are signalled."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        log("timed out")
        return None, 1
    kill_group()  # nothing should be left; make sure of it
    return out.decode(), proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    t0 = time.time()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("libscript sources (src/) not found next to perfbench/")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    t_built = time.time()
    # A run that had to compile gets its full time budget after the build.
    deadline = (t_built if t_built - t0 > 5 else t0) + RUN_LIMIT_S

    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        out, rc = run_binary(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", tmp], deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = (out or "").strip().splitlines()
    if not lines:
        log("benchmark printed no result (exit %s)" % rc)
        return rc or 1
    result = json.loads(lines[-1])
    native = result["metrics"]

    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(native):
        m = native[name]
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))

    aliases = E2E_NAMES["script_cycle" if args.workload == "script_cycle"
                        else "lockdb"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        src = aliases.get(m["name"], m["name"])
        if src in native:
            if native[src]["unit"] != m["unit"]:
                log("unit mismatch for %s: %s vs %s" %
                    (src, native[src]["unit"], m["unit"]))
                return 1
            value = native[src]["value"]
        elif args.trace:
            value = 0  # this workload does not exercise the layer
        else:
            log("missing end-to-end metric " + src)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
