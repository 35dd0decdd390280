"""Paired benchmark runs of two commits, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --label cold_start --parent HEAD~1 --change HEAD \\
        --pairs graph-cli=10 --pairs verify-n16=3 --pairs analyze-batch=3 \\
        --seed 11 --trace-metrics cli.startup_s --note "what the change does"

Run from the repository root.  The committed files of each commit are
exported with `git archive` into a temporary directory, so each side runs
its own commit's benchmark on its own sources and the working tree is not
touched.  For every workload, pair p runs

    python3 perfbench/run.py --workload W --seed S+p

once in each export, the parent first in even pairs and the change first in
odd ones, so a slow spell of the host falls on both sides alike.  The last
stdout line of every run is kept under `runs`.  `summary` gives, for each
end-to-end metric of the parent's BENCHMARK.json, each side's median and
quartiles, the number of pairs in which the change reads better (ties
count for neither side) and a `verdict` against the metric's bound (see
`verdict`).  With `--trace-metrics`, one
`run.py --workload all --seed S --trace 1` run per side adds the named
per-layer figures of every workload under `trace`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """The committed files of `rev` unpacked into the new directory `dest`;
    returns its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], check=True,
                   input=_git("archive", "--format=tar", commit))
    return commit


def bench(tree: str, workload: str, seed: int, trace: int = 0) -> dict:
    """The last stdout line of one perfbench run in `tree`, as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py --workload {workload} --seed {seed} in {tree} "
                           f"exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """'worse' when the change's median is worse than the parent's by more
    than bound x the parent's median; 'unresolved' when it is not, but the
    parent's quartile spread exceeds that margin and not every change run
    beats every parent run; 'held' otherwise.  `sign` is 1 when lower is
    better and -1 when higher is."""
    p, c = spread(parent), spread(change)
    margin = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) > margin:
        return "worse"
    if (p["q3"] - p["q1"] > margin
            and max(sign * x for x in change) >= min(sign * x for x in parent)):
        return "unresolved"
    return "held"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's spread, the pairs
    in which the change reads better and the verdict."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        row: dict = {}
        for spec in end_to_end:
            name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
            value = {side: [p[side]["metrics"][name]["value"] for p in pairs.values()]
                     for side in SIDES}
            better = sum(sign * c < sign * p
                         for p, c in zip(value["parent"], value["change"]))
            row[name] = {side: spread(value[side]) for side in SIDES}
            row[name]["change_better_pairs"] = f"{better}/{len(pairs)}"
            row[name]["verdict"] = verdict(value["parent"], value["change"], sign,
                                           spec["bound"])
        row["all_correct"] = all(p[side]["correct"] and p[side]["failed"] == 0
                                 for p in pairs.values() for side in SIDES)
        out[workload] = row
    return out


def _pair_spec(text: str) -> tuple[str, int]:
    workload, _, count = text.partition("=")
    try:
        return workload, int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=_pair_spec, action="append", required=True,
                        metavar="WORKLOAD=PAIRS")
    parser.add_argument("--seed", type=int, default=1,
                        help="pair p of every workload runs seed SEED + p")
    parser.add_argument("--trace-metrics", nargs="*", default=[],
                        help="per-layer metrics to keep from one traced run per side")
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args(argv)
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees, commits = {}, {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = os.path.join(scratch, side)
            commits[side] = export(rev, trees[side])
        with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            end_to_end = json.load(fh)["end_to_end"]
        runs = []
        for workload, count in args.pairs:
            for pair in range(count):
                seed = args.seed + pair
                first = SIDES[pair % 2]
                for side in (first, SIDES[1 - pair % 2]):
                    result = bench(trees[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, "first": first, "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.4f}"
                                     for k, v in result["metrics"].items()),
                          file=sys.stderr, flush=True)
        trace = {}
        if args.trace_metrics:
            traced = {side: bench(trees[side], "all", args.seed, trace=1)["metrics"]
                      for side in SIDES}
            for key in traced["parent"]:
                if key.split(".", 1)[1] in args.trace_metrics:
                    trace[key] = {side: traced[side][key]["value"] for side in SIDES}
                    trace[key]["unit"] = traced["parent"][key]["unit"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "label": args.label,
        "change": args.note,
        "commits": commits,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "method": (
            "python3 perfbench/run.py --workload W --seed S (default --seconds, "
            "--trace 0), run by tools/bench_pairs.py in a git-archive export of "
            "each commit, alternating which side runs first from pair to pair; "
            "'runs' holds each run's last stdout line as 'result'. 'summary' "
            "gives each side's median and quartiles, the pairs where the "
            "change reads better and a verdict against the metric's bound: "
            "'worse' (median worse by more than bound x the parent's median), "
            "'unresolved' (not worse, but the parent's quartile spread exceeds "
            "that margin and not every change run beats every parent run) or "
            "'held'. 'trace' is one --workload all --trace 1 run per side."),
        "summary": summarize(runs, end_to_end),
        "trace": trace,
        "runs": runs,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
