#!/usr/bin/env python3
"""Builds and runs the LSMIO end-to-end benchmark.

    python3 lsmio_bench/run.py --workload ckpt_64k --seed 1 --seconds 10 --trace 0
    python3 lsmio_bench/run.py --self-test

The benchmark compiles the library from this checkout's src/ in Release
(build tree under $CARGO_TARGET_DIR, default .bench_build), runs one workload
in a scratch directory that it recreates before and removes after the run
(.bench_scratch), and prints one JSON result as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The full
record, with provenance, goes to .bench_out/<workload>_seed<N>_trace<T>.json
and a traced run's spans to .bench_out/spans_<workload>_seed<N>.tsv.
Progress and the human-readable report go to stderr. --self-test builds and
runs the tests of the benchmark's own arithmetic.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("ckpt_64k", "ckpt_small", "kv_update")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must finish within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lsmio_bench")


def build(targets):
    """Configures (once) and builds `targets` in Release; returns the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build_log = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "3", "--target", *targets])
    with open(build_log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                f.flush()
                with open(build_log) as r:
                    log("".join(r.readlines()[-30:]))
                log("build failed: " + " ".join(cmd))
                sys.exit(1)
    return out


def cmake_cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_type(path):
    """Type of the filesystem holding `path`, as statfs(2) reports it."""
    try:
        r = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or "unavailable" when it is not a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def provenance(out, scratch, args):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": cmake_cache_value(out, "CMAKE_BUILD_TYPE"),
        "cxx_compiler": cmake_cache_value(out, "CMAKE_CXX_COMPILER"),
        "nproc": len(os.sched_getaffinity(0)),
        "scratch_fs": filesystem_type(scratch),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_child(cmd):
    """Runs the benchmark binary; returns (exit code, stdout). Kills it on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, stdout


def self_test():
    out = build(["lsmio_bench_test"])
    exe = os.path.join(out, "lsmio_bench_test")
    if not os.path.exists(exe):
        log("GoogleTest not found: the self-test was not built")
        return 1
    return subprocess.run([exe], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "manager.h")):
        log(f"library sources not found under {ROOT}/src: run from an LSMIO checkout")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build(["lsmio_bench"])
    scratch = os.path.join(ROOT, ".bench_scratch")
    results = os.path.join(ROOT, ".bench_out")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    detail_path = os.path.join(results, f"{stem}_trace{args.trace}.json")
    cmd = [os.path.join(out, "lsmio_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch, "--out", detail_path]
    if args.trace:
        cmd += ["--spans", os.path.join(results, f"spans_{stem}.tsv")]

    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    prov = provenance(out, scratch, args)
    log("provenance: " + json.dumps(prov))
    started = time.monotonic()
    try:
        code, stdout = run_child(cmd)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    log(f"run took {time.monotonic() - started:.1f} s, exit code {code}")

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        log("benchmark printed no result")
        return code or 1

    try:
        with open(detail_path) as f:
            detail = json.load(f)
        detail["provenance"] = prov
        with open(detail_path, "w") as f:
            json.dump(detail, f, indent=1)
            f.write("\n")
    except (OSError, ValueError) as e:
        log(f"cannot add provenance to {detail_path}: {e}")
        code = code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
