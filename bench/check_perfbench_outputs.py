#!/usr/bin/env python3
"""Checks perfbench's deterministic outputs against a checked-in fixture.

    python3 bench/check_perfbench_outputs.py [--results DIR] [--regen]

perfbench/run.py writes one result file per run (default .bench_results/).
For each workload the fixture holds, this reads the untraced result at
seed 1 (the seed CI runs) and compares its per-input-set digests and
every sim_* end-to-end value with tests/fixtures/perfbench_outputs.json.
Both are fixed by the seed, whatever the run length or host, so any
difference means the simulated output moved. A change that is meant to
move it reruns the workloads at seed 1 and rewrites the fixture with
--regen, which records every untraced seed-1 result in the results
directory.

Exits 0 when everything matches, 1 on a difference or a missing result,
2 on bad usage.
"""

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "perfbench_outputs.json")
SEED = 1


def outputs(doc):
    """The seed-determined part of one result file."""
    sim = {k: m["value"] for k, m in doc["end_to_end"].items() if k.startswith("sim_")}
    return {"digests": list(doc["digests"]), "sim": sim}


def load_result(results, workload):
    path = os.path.join(results, f"{workload}-seed{SEED}-trace0.json")
    if not os.path.isfile(path):
        return None, path
    with open(path) as f:
        return json.load(f), path


def regen(results):
    workloads = {}
    for path in sorted(glob.glob(os.path.join(results, f"*-seed{SEED}-trace0.json"))):
        with open(path) as f:
            doc = json.load(f)
        workloads[doc["workload"]] = outputs(doc)
    if not workloads:
        print(f"check_perfbench_outputs: no untraced seed-{SEED} results in {results}",
              file=sys.stderr)
        return 1
    with open(FIXTURE, "w") as f:
        json.dump({"seed": SEED, "workloads": workloads}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"check_perfbench_outputs: recorded {', '.join(sorted(workloads))} "
          f"at seed {SEED} into {FIXTURE}")
    return 0


def check(results):
    with open(FIXTURE) as f:
        pinned = json.load(f)
    problems = []
    for workload, want in sorted(pinned["workloads"].items()):
        doc, path = load_result(results, workload)
        if doc is None:
            problems.append(f"{workload}: no result file {path}")
            continue
        got = outputs(doc)
        before = len(problems)
        if got["digests"] != want["digests"]:
            problems.append(f"{workload}: digests {got['digests']} != pinned {want['digests']}")
        for name in sorted(set(want["sim"]) | set(got["sim"])):
            a, b = got["sim"].get(name), want["sim"].get(name)
            if a != b:
                problems.append(f"{workload}: {name} = {a!r}, pinned {b!r}")
        if len(problems) == before:
            print(f"  {workload}: {len(want['digests'])} digests and "
                  f"{len(want['sim'])} sim_* values match")
    for p in problems:
        print(f"  DIFFERS: {p}")
    if problems:
        print(f"check_perfbench_outputs: {len(problems)} difference(s) from {FIXTURE}")
        return 1
    print(f"check_perfbench_outputs: ok ({len(pinned['workloads'])} workloads, seed {SEED})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_results"),
                    help="directory of perfbench/run.py result files")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the fixture from the results instead of checking")
    args = ap.parse_args()
    if args.regen:
        sys.exit(regen(args.results))
    if not os.path.isfile(FIXTURE):
        print(f"check_perfbench_outputs: no fixture {FIXTURE}", file=sys.stderr)
        sys.exit(2)
    sys.exit(check(args.results))


if __name__ == "__main__":
    main()
