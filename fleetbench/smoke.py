#!/usr/bin/env python3
"""Smoke test of the fleet benchmark.

Usage (from the repository root):

    python3 fleetbench/smoke.py            # tiny scale, checks shapes
    python3 fleetbench/smoke.py --record   # rewrite the tiny-scale shapes
    python3 fleetbench/smoke.py --full     # full scale, checks shapes

Runs every workload (those in BENCHMARK.json, and `migrate`) on the default
seed (1) and the held-out seed (2), untraced and traced, and fails unless
each run

  * exits 0 and ends with a JSON line reporting correct, with no failures;
  * prints every metric BENCHMARK.json names for that mode, with its unit;
  * reconciles the traced ledger;
  * prints the same workload shape (deterministic counts: packets, proofs,
    migrations, strangers, the decision mix, snapshot bytes) as recorded in
    shapes.json. A change to what a workload does shows up here as a
    changed count; re-record only when that change is intended.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHAPES = os.path.join(HERE, "shapes.json")
SEEDS = (1, 2)
WORKLOADS = ("steady", "onboard", "guarded", "migrate")
TINY = {"scale": "0.02", "seconds": "0.5"}
FULL = {"scale": "1", "seconds": "1"}


def run(workload, seed, trace, size):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", size["seconds"], "--trace", str(trace),
        "--scale", size["scale"],
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def check(bench, workload, seed, trace, size, errors):
    code, out, err = run(workload, seed, trace, size)
    tag = f"{workload} seed {seed} trace {trace}"
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        errors.append(f"{tag}: exit {code}\n{err[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"]:
            errors.append(f"{tag}: metric {m['name']} missing or not in {m['unit']}: {entry}")
        elif not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{tag}: metric {m['name']} has no numeric value")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{tag}: unexpected metrics {sorted(extra)}")
    if trace and not any(l.strip().startswith("ledger reconciled") for l in lines):
        errors.append(f"{tag}: ledger not reconciled")
    shapes = [l[len("shape "):] for l in lines if l.startswith("shape ")]
    return json.loads(shapes[0]) if shapes else None


def main():
    record = "--record" in sys.argv
    full = "--full" in sys.argv
    size, key = (FULL, "full") if full else (TINY, "tiny")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    recorded = {}
    if os.path.exists(SHAPES):
        with open(SHAPES) as f:
            recorded = json.load(f)
    errors = []
    shapes = {}
    for w in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                shape = check(bench, w, seed, trace, size, errors)
                if trace == 0:
                    shapes[f"{w}/{seed}"] = shape
            print(f"ran {w} seed {seed}", flush=True)
    if record:
        recorded[key] = shapes
        with open(SHAPES, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {key} shapes in {SHAPES}")
    else:
        for name, shape in shapes.items():
            want = recorded.get(key, {}).get(name)
            if shape != want:
                errors.append(f"{name}: shape changed\n  recorded {want}\n  now      {shape}")
    for e in errors:
        print("FAIL", e)
    print("smoke: PASS" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
