import importlib.util
from pathlib import Path

_path = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, wall, ops, correct=True):
    metrics = {"wall_rel": {"value": wall, "unit": "x"},
               "ops": {"value": ops, "unit": "count"}}
    return {"workload": "w", "seed": 1 + pair, "pair": pair, "side": side,
            "result": {"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": metrics}}


def test_summary_counts_pairs_the_change_wins_by_each_metric_direction():
    spec = [{"name": "wall_rel", "better": "lower", "bound": 0.25},
            {"name": "ops", "better": "higher", "bound": 0.25}]
    runs = [_run(0, "parent", 1.0, 5), _run(0, "change", 0.5, 5),
            _run(1, "change", 0.7, 6), _run(1, "parent", 0.9, 4),
            _run(2, "parent", 0.8, 4), _run(2, "change", 0.8, 3, correct=False)]
    row = bench_pairs.summarize(runs, spec)["w"]
    assert row["wall_rel"]["change_better_pairs"] == "2/3"  # a tie wins nothing
    assert row["ops"]["change_better_pairs"] == "1/3"
    assert row["wall_rel"]["parent"]["median"] == 0.9
    assert row["wall_rel"]["change"]["n"] == 3
    assert row["all_correct"] is False


def test_verdict_weighs_the_median_shift_against_bound_and_parent_spread():
    tight = [1.0, 1.0, 1.01, 0.99, 1.0]
    wide = [0.6, 1.0, 1.4, 0.7, 1.3]
    assert bench_pairs.verdict(tight, [1.3] * 5, 1, 0.25) == "worse"
    assert bench_pairs.verdict(tight, [1.2] * 5, 1, 0.25) == "held"  # within the bound
    assert bench_pairs.verdict([5, 5, 5], [3, 3, 3], -1, 0.25) == "worse"  # higher is better
    # not worse, but the parent's quartiles span more than the bound allows
    assert bench_pairs.verdict(wide, [1.1, 0.9, 1.2, 1.0, 0.8], 1, 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(wide, [0.5, 0.4, 0.55, 0.45, 0.5], 1, 0.25) == "held"
