#!/usr/bin/env python3
"""Checks perfbench's deterministic outputs against a checked-in fixture.

    python3 bench/check_perfbench_outputs.py [--results DIR] [--regen]

perfbench/run.py writes one result file per run (default .bench_results/).
For each workload the fixture holds, this reads the untraced results at
seed 1 and at the workload's held-out seed (`held_out_seed` in
perfbench/workloads.json; CI runs both) and compares their per-input-set
digests and every sim_* end-to-end value with
tests/fixtures/perfbench_outputs.json. Both are fixed by the seed,
whatever the run length or host, so any difference means the simulated
output moved. A change that is meant to move it reruns the workloads at
those seeds and rewrites the fixture with --regen, which records every
such untraced result in the results directory.

Exits 0 when everything matches, 1 on a difference or a missing result,
2 on bad usage.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "perfbench_outputs.json")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.json")
SEED = 1


def held_out_seeds():
    """workload -> held-out seed, as perfbench/workloads.json defines them."""
    with open(WORKLOADS) as f:
        doc = json.load(f)
    return {name: int(w["held_out_seed"]) for name, w in doc["workloads"].items()}


def outputs(doc):
    """The seed-determined part of one result file."""
    sim = {k: m["value"] for k, m in doc["end_to_end"].items() if k.startswith("sim_")}
    return {"digests": list(doc["digests"]), "sim": sim}


def load_result(results, workload, seed):
    path = os.path.join(results, f"{workload}-seed{seed}-trace0.json")
    if not os.path.isfile(path):
        return None, path
    with open(path) as f:
        return json.load(f), path


def regen(results):
    workloads, held_out = {}, {}
    for workload, seed in sorted(held_out_seeds().items()):
        doc, _ = load_result(results, workload, SEED)
        if doc is not None:
            workloads[workload] = outputs(doc)
        doc, _ = load_result(results, workload, seed)
        if doc is not None:
            held_out[workload] = {"seed": seed, **outputs(doc)}
    if not workloads and not held_out:
        print(f"check_perfbench_outputs: no untraced results at seed {SEED} or the "
              f"held-out seeds in {results}", file=sys.stderr)
        return 1
    with open(FIXTURE, "w") as f:
        json.dump({"seed": SEED, "workloads": workloads, "held_out": held_out},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    held = ", ".join(f"{w} at seed {held_out[w]['seed']}" for w in sorted(held_out))
    print(f"check_perfbench_outputs: recorded {', '.join(sorted(workloads))} at seed "
          f"{SEED} and {held} into {FIXTURE}")
    return 0


def compare(results, workload, seed, want, problems):
    doc, path = load_result(results, workload, seed)
    if doc is None:
        problems.append(f"{workload} seed {seed}: no result file {path}")
        return
    got = outputs(doc)
    before = len(problems)
    if got["digests"] != want["digests"]:
        problems.append(f"{workload} seed {seed}: digests {got['digests']} "
                        f"!= pinned {want['digests']}")
    for name in sorted(set(want["sim"]) | set(got["sim"])):
        a, b = got["sim"].get(name), want["sim"].get(name)
        if a != b:
            problems.append(f"{workload} seed {seed}: {name} = {a!r}, pinned {b!r}")
    if len(problems) == before:
        print(f"  {workload} seed {seed}: {len(want['digests'])} digests and "
              f"{len(want['sim'])} sim_* values match")


def check(results):
    with open(FIXTURE) as f:
        pinned = json.load(f)
    held = held_out_seeds()
    problems = []
    for workload, want in sorted(pinned["workloads"].items()):
        compare(results, workload, SEED, want, problems)
        seed = held.get(workload)
        want_held = pinned.get("held_out", {}).get(workload)
        if seed is None:
            problems.append(f"{workload}: not in {WORKLOADS}")
        elif want_held is None or want_held["seed"] != seed:
            problems.append(f"{workload}: no pinned outputs at held-out seed {seed}; "
                            f"run it and rewrite the fixture with --regen")
        else:
            compare(results, workload, seed, want_held, problems)
    for p in problems:
        print(f"  DIFFERS: {p}")
    if problems:
        print(f"check_perfbench_outputs: {len(problems)} difference(s) from {FIXTURE}")
        return 1
    print(f"check_perfbench_outputs: ok ({len(pinned['workloads'])} workloads, "
          f"seed {SEED} and held-out seeds)")
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
