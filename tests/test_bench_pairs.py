"""``tools/bench_pairs.py``: the summary of canned pairs, and the protocol
run against two stub trees whose ``perfbench/run.py`` prints a canned line."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCH = {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "speed", "better": "higher", "bound": 0.24},
                        {"name": "rss", "better": "lower", "bound": 0.1}]}


def result(speed, rss, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"speed": {"value": speed, "unit": "1/s"},
                        "rss": {"value": rss, "unit": "MB"}}}


def canned(parent_speeds, change_speeds, rss=50.0):
    return [{"seed": i, "workload": "w", "first": "parent",
             "parent": result(p, rss), "change": result(c, rss)}
            for i, (p, c) in enumerate(zip(parent_speeds, change_speeds))]


def test_summary_of_canned_pairs():
    pairs = canned([10.0, 12.0, 11.0, 13.0, 14.0], [15.0, 12.0, 16.0, 17.0, 18.0])
    pairs[0]["change"]["metrics"]["rss"]["value"] = 49.0
    pairs[1]["change"]["metrics"]["rss"]["value"] = 51.0
    summary = bench_pairs.summarize(pairs, BENCH)
    assert summary["w.speed"] == {
        "parent_q1_median_q3": [11.0, 12.0, 13.0],
        "change_q1_median_q3": [15.0, 16.0, 17.0],
        "change_over_parent_median": 16.0 / 12.0,
        "parent_iqr": 2.0,
        "change_better": 4,       # the tie at 12.0 counts for neither side
        "median_gap_exceeds_parent_iqr": True,
        "pairs": 5,
        "bound": 0.24,
    }
    rss = summary["w.rss"]
    # lower is better: 49 beats 50, 51 loses, the rest tie
    assert rss["change_better"] == 1 and rss["parent_iqr"] == 0.0
    assert rss["median_gap_exceeds_parent_iqr"] is False and rss["bound"] == 0.1


def test_problems_name_incorrect_runs_and_rising_failures():
    pairs = canned([1.0, 1.0], [1.0, 1.0])
    assert bench_pairs.problems(pairs) == []
    pairs[1]["change"] = result(1.0, 50.0, failed=2, correct=False)
    assert bench_pairs.problems(pairs) == ["w seed 1 change: run not correct",
                                           "failed operations rose: 0 -> 2"]


STUB = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open("runs.log", "a") as fh:
    fh.write(f"{args['--workload']} {seed} {args['--trace']}\\n")
print("machine " + json.dumps({"nproc": 2}))
print(json.dumps({"correct": SIDE != "bad", "attempted": 5, "failed": 0, "metrics": {
    name: {"value": SPEED * seed, "unit": "x"} for name in ("setup_s", "train_steps_per_s",
    "backtest_days_per_s", "peak_rss_mb")}}))
"""


def stub_tree(path: Path, side: str, speed: float) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        STUB.replace("SIDE", repr(side)).replace("SPEED", repr(speed)))
    return path


@pytest.mark.parametrize("change_side", ["change", "bad"])
def test_protocol_alternates_and_writes_every_run(tmp_path, change_side):
    parent = stub_tree(tmp_path / "parent", "parent", 1.0)
    change = stub_tree(tmp_path / "change", change_side, 2.0)
    out = tmp_path / "bench.json"
    rc = bench_pairs.main([str(parent), str(change), "--pairs", "3", "--first-seed", "7",
                           "--out", str(out)])
    doc = json.loads(out.read_text())
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["workloads"]]
    assert [(p["seed"], p["workload"], p["first"]) for p in doc["pairs"]] == [
        (seed, w, first) for seed, first in ((7, "parent"), (8, "change"), (9, "parent"))
        for w in workloads]
    runs = (parent / "runs.log").read_text().splitlines()
    assert runs == [f"{w} {seed} 0" for seed in (7, 8, 9) for w in workloads]
    assert doc["machine"] == {"nproc": 2}
    key = f"{workloads[0]}.backtest_days_per_s"
    assert doc["summary"][key]["change_better"] == 3
    assert doc["summary"][key]["change_over_parent_median"] == 2.0
    assert (rc == 0) == (change_side == "change")
    assert len(doc["problems"]) == (0 if change_side == "change" else 3 * len(workloads))
