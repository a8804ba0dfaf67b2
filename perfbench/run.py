#!/usr/bin/env python3
"""Builds and runs the repo benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package compiling ../src) in Release under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload for S seconds and checks its outputs. Writes the full result,
with a run header (source revision, build type, nproc, solver lanes,
raw-thread calibration), to .bench_results/ (or --out DIR), prints a
readable report, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. A traced run also writes a Perfetto trace of the
benchmark's own wall-clock spans next to the result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The end-to-end metrics BENCHMARK.json bounds. The others the binary
# reports (error_rate, sim_*) are printed in the report and stored in the
# result file: error_rate is 0 on a correct run and the sim_* metrics are
# fixed by the seed, so neither is a host-time figure with a noise bound.
BOUNDED_E2E = ("run_s", "setup_s", "peak_rss_mb")

BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (exit {rc}); full log in {log_path}")
    return os.path.join(out, "perfbench")


def source_revision():
    """git sha when the tree is a git checkout, plus a digest of the files
    the binary is built from (identifies the code in a plain checkout)."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()[:16]


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def report(doc):
    h = doc["header"]
    cal = h["calibration"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"reps={doc['repetitions']} digests={' '.join(doc['digests'])}")
    print(f"  header: git_sha={h['git_sha']} source_digest={h['source_digest']} "
          f"build={h['build_type']} nproc={h['nproc']} solver_lanes={h['solver_lanes']} "
          f"input_sets={h['input_sets']} "
          f"calibration: 1 lane {cal['one_lane_ms']:.1f} ms, {cal['lanes']} lanes "
          f"{cal['all_lanes_ms']:.1f} ms, speedup {cal['lane_speedup']:.2f}")
    print("  end-to-end (untraced repetitions):")
    for name, m in doc["end_to_end"].items():
        extra = ""
        if "p25" in m:
            extra = f"  [p25 {fmt(m['p25'])} .. p75 {fmt(m['p75'])}, n={m['samples']:.0f}]"
        print(f"    {name:<20} {fmt(m['value']):>14} {m['unit']}{extra}")
    c = doc["checks"]
    print(f"  checks: {c['failed']:.0f} failed of {c['attempted']:.0f}")
    for f in c["failures"]:
        print(f"    FAILED: {f}")
    if "per_layer" in doc:
        print("  per-layer (traced repetitions):")
        for name, m in doc["per_layer"].items():
            why = doc["absent"].get(name)
            note = f"  (absent: {why})" if why else ""
            print(f"    {name:<44} {fmt(m['value']):>14} {m['unit']}{note}")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in doc["shares_of_run_s"].items())
        print(f"  shares of traced run_s: {shares}")


def main():
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_results"),
                    help="directory for result and trace files")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", stem + ".trace.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(170.0, args.seconds + 120.0))
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    doc = json.loads(proc.stdout)

    sha, digest = source_revision()
    doc["header"]["git_sha"] = sha
    doc["header"]["source_digest"] = digest
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    report(doc)
    section = doc["per_layer"] if args.trace else {
        k: doc["end_to_end"][k] for k in BOUNDED_E2E}
    checks = doc["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": int(checks["attempted"]),
        "failed": int(checks["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in section.items()},
    }))


if __name__ == "__main__":
    main()
