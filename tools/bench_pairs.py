#!/usr/bin/env python3
"""Run the benchmark's pair protocol on two source trees and write the runs
and their summary as one JSON document.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --first-seed 2801 --out BENCH_28.json

Pair i uses seed ``first-seed + i``. For each workload of ``BENCHMARK.json``
it runs ``perfbench/run.py --workload <w> --seed <s> --seconds <run_seconds>
--trace 0`` in each tree, one run at a time, parent and change back to back,
the parent first in even pairs and the change first in odd ones. Every run's
result line goes into ``pairs``. ``summary`` holds, per workload and
end-to-end metric, each side's q1, median and q3, the parent's IQR, the
change/parent median ratio, the pairs the change won (a tie counts for
neither side; the direction is the metric's ``better``), whether the gap
between the medians is wider than the parent's IQR, and the metric's bound.

The script only reads ``BENCHMARK.json`` (the one next to ``tools/``). It
exits 1 when a run is not ``correct`` or when the change's failed operations
outnumber the parent's, after writing the document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict | None]:
    """One benchmark run in ``tree``: its result line, and the machine line
    ``perfbench/run.py`` prints first (None if it printed none). A run that
    prints no result line counts as not correct, with one failed operation."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    machine, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "error": f"exit {proc.returncode}: {tail}"}
    return result, machine


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, by the inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list[dict], bench: dict) -> dict:
    """Per ``workload.metric`` of ``bench``'s workloads and end-to-end
    metrics that the pairs report, the figures the module docstring lists."""
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [p for p in pairs if p["workload"] == workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                    for p in runs if name in p["parent"]["metrics"]
                    and name in p["change"]["metrics"]]
            if len(both) < 2:
                continue
            parent, change = [b[0] for b in both], [b[1] for b in both]
            pq, cq = quartiles(parent), quartiles(change)
            sign = 1.0 if metric["better"] == "higher" else -1.0
            summary[f"{workload}.{name}"] = {
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "change_over_parent_median": cq[1] / pq[1],
                "parent_iqr": pq[2] - pq[0],
                "change_better": sum(sign * (c - p) > 0 for p, c in both),
                "median_gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
                "pairs": len(both),
                "bound": metric["bound"],
            }
    return summary


def problems(pairs: list[dict]) -> list[str]:
    """Each run that is not correct, and a rise in failed operations."""
    found = [f"{p['workload']} seed {p['seed']} {side}: run not correct"
             for p in pairs for side in ("parent", "change") if not p[side]["correct"]]
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    if failed["change"] > failed["parent"]:
        found.append(f"failed operations rose: {failed['parent']} -> {failed['change']}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    trees = {"parent": args.parent_dir, "change": args.change_dir}

    pairs, machine = [], None
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in bench["workloads"]):
            pair = {"seed": seed, "workload": workload, "first": order[0]}
            for side in order:
                pair[side], seen = run_once(trees[side], command, workload, seed, seconds)
                machine = machine or seen
                print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", flush=True)
            pairs.append(pair)

    found = problems(pairs)
    doc = {
        "command": " ".join(command) + " --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"one run at a time; per pair and workload, parent and change back "
                    f"to back, the first side alternating by pair; seeds "
                    f"{args.first_seed}-{args.first_seed + args.pairs - 1}",
        "machine": machine,
        "summary": summarize(pairs, bench),
        "failed_operations": {side: sum(p[side]["failed"] for p in pairs)
                              for side in ("parent", "change")},
        "problems": found,
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for problem in found:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
