#!/usr/bin/env python3
"""Builds and runs the perfbench binary for one workload (or all of them).

    python3 perfbench/run.py --workload perm_campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The binary is compiled from this checkout's sources in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); campaign
directories and exported traces go to .bench_work/. Each workload runs in
its own process. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer one.
The exit code is non-zero when the build fails, a check fails or the
metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("perm_campaign", "severe_campaign", "serve_mixed")
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src" % ROOT)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(step))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (result, build record)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", os.path.join(ROOT, ".bench_work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        fail("%s: perfbench exited with %d" % (workload, proc.returncode))
    build_record = json.loads(lines[0])["build"]
    result = json.loads(lines[-1])
    for note in lines[1:-1]:
        print("  " + note)

    units = expected_units(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        fail("%s: metrics differ from BENCHMARK.json (missing %s, extra %s, or units)"
             % (workload, missing, extra))
    return result, build_record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        print("== %s (seed %d, %g s, trace %d)" % (workload, args.seed, args.seconds,
                                                  args.trace))
        result, build_record = run_workload(binary, workload, args.seed, args.seconds,
                                            bool(args.trace))
        host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                "compiler": build_record["compiler"],
                "build_type": build_record["build_type"],
                "EPEA_OBS_ENABLED": build_record["obs_enabled"],
                "git_commit": git_commit()}
        print(json.dumps({"host": host}))
        for name, m in sorted(result["metrics"].items()):
            print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps(result))
        ok = ok and result["correct"]
    sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
