#!/usr/bin/env python3
"""Builds and runs the mondet benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds the library and the benchmark binary
with CMake into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when
set); later calls only let the build tool confirm it is up to date. The binary's last
stdout line is the result object, printed here unchanged as the last line.
--smoke runs every workload at tiny sizes, traced and untraced, and fails
unless every metric of BENCHMARK.json is emitted with its unit and nothing
failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("check", "fixpoint", "churn", "containment")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the mondet sources (src/) are not in this checkout")
    out = build_dir()
    log = os.path.join(os.path.dirname(out), "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    with open(log, "a") as logf:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            r = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=logf, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail("cmake configure failed, see " + log)
        jobs = str(max(1, os.cpu_count() or 1))
        r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                           stdout=logf, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail("build failed, see " + log)
    return os.path.join(out, "mondet_perfbench")


def revision():
    """The git revision in a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(exe, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result dict, full stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision()]
    if trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark binary exited with code %d" % r.returncode)
    return json.loads(lines[-1]), r.stdout


def smoke(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads %s != %s" % (names, list(WORKLOADS)))
    problems = []
    for w in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res, _ = run_binary(exe, w, 1, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            tag = "%s trace=%d" % (w, trace)
            if got != want:
                problems.append("%s: metrics/units differ: missing %s, "
                                "extra or wrong %s" % (
                                    tag, sorted(set(want) - set(got)),
                                    sorted(k for k in got
                                           if want.get(k) != got[k])))
            if not res["correct"] or res["failed"] != 0 or \
                    res["attempted"] < 1:
                problems.append("%s: failed_frac = %d/%d" % (
                    tag, res["failed"], res["attempted"]))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (tag, k))
            print("smoke %-22s attempted=%d failed=%d metrics=%d" % (
                tag, res["attempted"], res["failed"], len(got)))
    if problems:
        for p in problems:
            print("SMOKE FAILED: " + p, file=sys.stderr)
        sys.exit(1)
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload is required (or --smoke)")
    exe = build()
    if args.smoke:
        smoke(exe)
        return
    _, out = run_binary(exe, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
