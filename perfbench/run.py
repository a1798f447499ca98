#!/usr/bin/env python3
"""Builds and runs the BlobSeer repository benchmark (see README.md).

    python3 perfbench/run.py --workload read_tcp --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn, each with
its own report and JSON line.

Run from the root of a source checkout. The benchmark package is built from
source (Release) under $CARGO_TARGET_DIR or .bench_build, its negative-control
self-test runs, then one workload is measured. The human-readable report goes
to stdout; the last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics" — the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

Exit status: 0 = measured and correct; 1 = wrong bytes were read (the JSON
line still prints, with "correct": false); 2 = could not build or run (no
JSON line).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark package; returns its dir."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    env = dict(os.environ)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return bdir


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return "%s+src:%s" % (commit, h.hexdigest()[:16])


def clean_stores(workdir):
    """Removes store directories a killed run may have left behind."""
    if not os.path.isdir(workdir):
        return
    for name in os.listdir(workdir):
        if name.startswith("store-"):
            shutil.rmtree(os.path.join(workdir, name), ignore_errors=True)


def measure(bdir, workdir, workload, args, wanted):
    """Runs one workload; prints its report and returns its JSON result."""
    clean_stores(workdir)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload=" + workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--workdir=" + workdir,
           "--commit=" + source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        clean_stores(workdir)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        fail("run failed (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            fail("metric %s missing or refused" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, want %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r" % args.workload)

    for var in ("BLOBSEER_IO_BACKEND", "BLOBSEER_BENCH_SMOKE"):
        os.environ.pop(var, None)
    bdir = build()
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("self-test failed: a checker accepted wrong bytes")

    workdir = os.path.join(ROOT, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    correct = True
    for w in workloads:
        result = measure(bdir, workdir, w, args, wanted)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
