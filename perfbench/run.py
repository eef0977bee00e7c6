#!/usr/bin/env python3
"""Run one mctg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_mctg --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports ``mctg`` from ``src/``
and exits non-zero, printing no result, when that is missing. With
``--trace 0`` the final line's metrics are the end-to-end metrics; with
``--trace 1`` the same untraced run is followed by one traced set-up and
round, and the final line's metrics are the per-layer ones. The final
line is always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in turn and prefixes each
metric with its workload's name. See ``perfbench/README.md``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: the bundled
# OpenBLAS is built for 64 threads, and the benchmark generates all load from
# this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def load_mctg() -> None:
    src = ROOT / "src"
    if not (src / "mctg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'mctg'} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import mctg
    if Path(mctg.__file__).resolve().parent != (src / "mctg").resolve():
        raise SystemExit(f"error: imported mctg from {mctg.__file__}, not {src}")


def machine_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_sha": sha,
    }


def best(values: list, higher_is_better: bool) -> float:
    """The run's fastest sample, the reported value of every timing except
    ``setup_s``. On the shared 2-vCPU VM the benchmark was defined on, each
    vCPU alternates between a fast state and one about 1.7x slower, for
    milliseconds to minutes at a time; a median reports how long the run
    spent in the slow state, while the fastest sample is the program's speed
    (see README)."""
    return max(values) if higher_is_better else min(values)


def summarize(name: str, samples: list, unit: str, higher_is_better: bool) -> str:
    """Best, median, sample count, and the worst-side percentile that has at
    least ten samples beyond it."""
    line = (f"  {name:<22} best {best(samples, higher_is_better):<11.6g} "
            f"median {statistics.median(samples):<11.6g} {unit:<4} n={len(samples)}")
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            worst = cuts[100 - p - 1] if higher_is_better else cuts[p - 1]
            line += f"  p{p}(worse side)={worst:.6g}"
            break
    return line


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer
    import workloads

    sizes = workloads.Sizes()
    tally = workloads.Tally()
    digests = set()
    layer = {}
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"tmp-{name}-") as workdir:
        workload = workloads.WORKLOADS[name](seed, workdir, sizes)
        try:
            setup_end = time.perf_counter() + sizes.setup_seconds
            while (len(tally.samples.get("setup_s", ())) < sizes.setup_repeats
                   or time.perf_counter() < setup_end):
                t0 = time.perf_counter()
                workload.setup(tally)
                tally.add("setup_s", time.perf_counter() - t0)
            deadline = time.perf_counter() + seconds
            while True:
                t0 = time.perf_counter()
                digests.add(workload.round(tally))
                tally.add("round_s", time.perf_counter() - t0)
                if time.perf_counter() >= deadline:
                    break
            if trace:
                traced = workloads.Tally()
                tr = tracer.Tracer(f"{name}-seed{seed}-{time.time_ns()}")
                with tr:
                    t0 = time.perf_counter()
                    workload.setup(traced)
                    t1 = time.perf_counter()
                    digests.add(workload.round(traced))
                    t2 = time.perf_counter()
                    workload.traced_extra(traced)
                tr.require(tracer.TARGETS)
                tally.record(traced.attempted, traced.failed, "; ".join(traced.problems))
                untraced = (statistics.median(tally.samples["setup_s"])
                            + statistics.median(tally.samples["round_s"]))
                layer = tracer.layer_metrics(tr.spans)
                layer["trace.overhead_ratio"] = ((t2 - t0) / untraced, "ratio")
                trace_path = OUT_DIR / f"trace-{name}-seed{seed}.csv.gz"
                tr.write(str(trace_path))
                print(f"  spans: {len(tr.spans)} written to {trace_path}", flush=True)
        except Exception:
            traceback.print_exc()
            tally.op(False, f"exception: {traceback.format_exc().strip().splitlines()[-1]}")
    if len(digests) > 1:
        tally.problems.append(f"rounds of one seed gave different results: {sorted(digests)}")

    samples = dict(tally.samples)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    metrics = {}
    for metric, (unit, higher) in {**workloads.END_TO_END,
                                   **workloads.COMMAND_TIMES}.items():
        values = samples.get(metric)
        if values:
            print(summarize(metric, values, unit, higher))
            if metric in workloads.END_TO_END:
                value = (statistics.median(values) if metric == "setup_s"
                         else best(values, higher))
                metrics[metric] = {"value": value, "unit": unit}
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  failed_ratio           {ratio:>12.6g}        "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"  result_digest          {','.join(sorted(digests)) or 'none'}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for k, (v, u) in layer.items():
            print(f"  {k:<36} {v:>14.6g} {u}")
    correct = not tally.problems and tally.failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": max(tally.attempted, 1),
            "failed": tally.failed if tally.attempted else 1, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_mctg()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")

    print("machine " + json.dumps(machine_info()), flush=True)
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
