"""fullex benchmark: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload verify-n16 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Every workload is a closed loop with one
client: an operation starts in a fresh child process only after the
previous one has ended, and only while it should end within `--seconds`.
A run first sets up three times, each in its own process, and `setup_s`
is the median: the batch workloads build the seed's relabelled batch
(`batch.py`), and `verify-n16`, which reads no input, byte-compiles the
sources afresh.  Operation i of a batch workload reads copy i of the
seed's batch, so a run's median spans several labellings.  Each operation
is followed by one run of the ruler (`ruler.py`), a fixed workload that
imports nothing from fullex.  `wall_s`, `cpu_s` and `peak_rss_mb` are
printed as medians over the run's operations of the child's wall time,
its `os.wait4` user+system time (pool workers included) and the largest
peak RSS in its process tree.  The shared host runs the same work up to
1.7 times slower for minutes at a time, so the timed metrics are the
ratios `wall_rel` and `cpu_rel`: the run's summed operation time over its
summed ruler time, which the host's speed scales alike.  Every output is
checked against `pinned.json`.

With `--trace 1` the run instead makes one untraced and one traced
operation and reports the per-layer metrics of `BENCHMARK.json` from the
traced one's spans, plus the spans of a traced batch build.  The traced
verify-all runs the headline `--nmax 18`, whose 10 s operations are too few
in a timed run for a steady median, so its per-layer figures cover the
n = 18 level too.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

SETUP_REPEATS = 3
STARTUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
FULLEX = [sys.executable, "-c", "import sys; from fullex.cli import main; sys.exit(main())"]
CHILD = [sys.executable, os.path.join(HERE, "child.py")]
BATCH = [sys.executable, os.path.join(HERE, "batch.py")]
RULER = [sys.executable, os.path.join(HERE, "ruler.py")]
COMPILE = [sys.executable, "-c", "import compileall, sys; "
           "sys.exit(not compileall.compile_dir(sys.argv[1], force=True, quiet=1))", SRC]
VERIFY_NMAX = 16  # the timed verify-all
TRACE_VERIFY_NMAX = 18  # the traced verify-all, the headline size
# the pool's spans come from a traced --jobs 2 run beside the verify-all trace
POOL_METRICS = ("harness.catalogue_digests.jobs2.s", "planar_code.encode_graph.s")


@dataclass
class Sample:
    """One finished child process."""
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    steal_ticks: int


def _steal_ticks() -> int:
    """Steal ticks of the whole machine so far (read-only, 0 if unavailable)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("FULLEX_NMAX", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children one at a time and keeps the run inside its budget."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.counter = 0

    def path(self, name: str) -> str:
        self.counter += 1
        return os.path.join(self.workdir, f"{self.counter:04d}-{name}")

    def spawn(self, cmd: list[str]) -> Sample:
        out_path, err_path = self.path("stdout"), self.path("stderr")
        timeout = max(1.0, self.deadline - time.monotonic())
        steal0 = _steal_ticks()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(),
                                    cwd=ROOT, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Sample(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr,
                      _steal_ticks() - steal0)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:5])
        return not problems


def _crash(sample: Sample, what: str) -> list[str]:
    tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return [f"{what} exited {sample.returncode}: {' '.join(tail)}"]


# ---------------------------------------------------------------------------
# Operations: each returns the children it timed, and tallies its checks
# ---------------------------------------------------------------------------

def op_verify(runner, tally, pins, trace=None, jobs=1, nmax=VERIFY_NMAX) -> list[Sample]:
    args = ["verify-all", "--nmax", str(nmax), "--jobs", str(jobs)]
    cmd = FULLEX + args if trace is None else CHILD + [
        "--trace", trace, "--run-id", "verify", "cli", "--"] + args
    s = runner.spawn(cmd)
    tally.record("verify-all", checks.check_verify(s.returncode, s.stdout, pins, nmax))
    return [s]


def op_analyze(runner, tally, pins, batch, trace=None) -> list[Sample]:
    from fullex.harness import GRAPH_CLAIMS
    cache_dir, result = runner.path("cache"), runner.path("result.json")
    cmd = CHILD + ([] if trace is None else ["--trace", trace, "--run-id", "analyze"])
    s = runner.spawn(cmd + ["analyze", batch, cache_dir, result])
    shutil.rmtree(cache_dir, ignore_errors=True)
    if s.returncode != 0 or not os.path.exists(result):
        problems = _crash(s, "analysis child")
        tally.record("cold pass", problems)
        tally.record("warm pass", problems)
        return [s]
    with open(result, "r", encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(result)
    tally.record("cold pass", checks.check_cold_pass(res["cold"], pins, GRAPH_CLAIMS))
    tally.record("warm pass", checks.check_warm_pass(res["cold"], res["warm"],
                                                     res["warm_misses"]))
    return [s]


def op_cli(runner, tally, pins, batch, trace=None) -> list[Sample]:
    samples = []
    for command in checks.CLI_COMMANDS:
        args = [command] + (["--k", "2"] if command == "extend-check" else []) + [batch]
        if trace is None:
            cmd = FULLEX + args
        else:
            cmd = CHILD + ["--trace", f"{trace}.{command}", "--run-id", command,
                           "cli", "--"] + args
        s = runner.spawn(cmd)
        tally.record(command, checks.check_cli(command, s.returncode, s.stdout, pins))
        samples.append(s)
    return samples


def run_op(workload, runner, tally, pins, batch_file, trace=None,
           nmax=VERIFY_NMAX) -> list[Sample]:
    if workload == "verify-n16":
        return op_verify(runner, tally, pins, trace, nmax=nmax)
    if workload == "analyze-batch":
        return op_analyze(runner, tally, pins, batch_file, trace)
    return op_cli(runner, tally, pins, batch_file, trace)


def op_ruler(runner, tally, pins) -> Sample:
    s = runner.spawn(RULER)
    tally.record("ruler", checks.check_ruler(s.returncode, s.stdout, pins))
    return s


def combine(samples: list[Sample]) -> dict:
    """One operation's end-to-end numbers from its child processes."""
    return {"wall_s": sum(s.wall_s for s in samples),
            "cpu_s": sum(s.cpu_s for s in samples),
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
            "steal_ticks": sum(s.steal_ticks for s in samples)}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(runner, tally, workload, seed, repeats) -> tuple[str | None, list[float]]:
    """Set the workload up `repeats` times; returns the batch file (None for
    verify-n16) and the set-up wall times.  All builds of a batch must agree."""
    if workload == "verify-n16":
        walls = []
        for _ in range(repeats):
            s = runner.spawn(COMPILE)
            walls.append(s.wall_s)
            tally.record("compile", [] if s.returncode == 0 else _crash(s, "compile"))
        return None, walls
    first, walls = None, []
    for _ in range(repeats):
        path = runner.path("batch.plc")
        s = runner.spawn(BATCH + ["--seed", str(seed), "--out", path])
        walls.append(s.wall_s)
        problems = []
        if s.returncode != 0 or not os.path.exists(path):
            problems = _crash(s, "batch build")
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            if first is None:
                first = (path, data)
            elif data != first[1]:
                problems.append("batch bytes differ between builds of one seed")
        tally.record("batch build", problems)
    return (first[0] if first else ""), walls


def batch_copy(runner, seed, copy, pins) -> str:
    """The seed's batch relabelled for operation `copy`; set-up built copy 0
    and checked the program's classes against the pins, so the later copies
    are only relabelled here, between timed operations."""
    import batch
    path = runner.path(f"batch-{copy}.plc")
    batch.planar_code.write_file(path, batch.build_batch(seed, pins["graphs"], copy))
    return path


def batch_summary(runner, batch_file) -> list[dict]:
    s = runner.spawn(BATCH + ["--summary", batch_file])
    return json.loads(s.stdout) if s.returncode == 0 else []


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def print_row(name, unit, values) -> None:
    q1, med, q3 = quartiles(values)
    print(f"  {name:<14} {med:12.6f} {unit:<3} q1 {q1:.6f} q3 {q3:.6f} n={len(values)}")


class EnvRow:
    """Python version, CPUs, load and steal ticks around one run, so that runs
    slowed by other tenants of the machine can be told apart."""

    def __init__(self, workload, seed):
        self.row = {"workload": workload, "seed": seed,
                    "python": platform.python_version(),
                    "nproc": len(os.sched_getaffinity(0)),
                    "loadavg_start": _loadavg()}
        self.steal0 = _steal_ticks()

    def print(self) -> None:
        self.row.update(loadavg_end=_loadavg(), steal_ticks=_steal_ticks() - self.steal0)
        print("env " + json.dumps(self.row))


def timed_run(workload, seed, seconds, runner, tally, pins) -> dict:
    env = EnvRow(workload, seed)
    batch_file, setup_walls = setup(runner, tally, workload, seed, SETUP_REPEATS)
    if tally.failed:
        return {}
    if batch_file:
        print("batch " + json.dumps(batch_summary(runner, batch_file)))
    ops, rulers = [], []
    start = time.monotonic()
    while True:
        if batch_file and ops:
            batch_file = batch_copy(runner, seed, len(ops), pins)
        ops.append(combine(run_op(workload, runner, tally, pins, batch_file)))
        rulers.append(op_ruler(runner, tally, pins))
        # start another operation only if it and its ruler should end inside
        # the window
        typical = statistics.median(o["wall_s"] + r.wall_s for o, r in zip(ops, rulers))
        if (time.monotonic() - start + typical > seconds
                or time.monotonic() + 2 * typical > runner.deadline):
            break
    env.print()
    for i, (o, r) in enumerate(zip(ops, rulers)):
        print(f"  op {i} wall_s {o['wall_s']:.6f} cpu_s {o['cpu_s']:.6f} "
              f"steal_ticks {o['steal_ticks']} ruler wall_s {r.wall_s:.6f} "
              f"cpu_s {r.cpu_s:.6f}")
    series = {name: [o[name] for o in ops] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["ruler_wall_s"] = [r.wall_s for r in rulers]
    series["setup_s"] = setup_walls
    for name, values in series.items():
        print_row(name, "MB" if name == "peak_rss_mb" else "s", values)
    values = {"wall_rel": sum(o["wall_s"] for o in ops) / sum(r.wall_s for r in rulers),
              "cpu_rel": sum(o["cpu_s"] for o in ops) / sum(r.cpu_s for r in rulers),
              "peak_rss_mb": statistics.median(series["peak_rss_mb"]),
              "setup_s": statistics.median(setup_walls)}
    for name in ("wall_rel", "cpu_rel"):
        print(f"  {name:<14} {values[name]:12.6f} {UNITS[name]:<3} "
              f"summed over n={len(ops)} operations and rulers")
    fail_rate = tally.failed / tally.attempted
    print(f"  {'fail_rate':<14} {fail_rate:12.6f} ({tally.failed}/{tally.attempted})")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def traced_run(workload, seed, runner, tally, pins) -> dict:
    env = EnvRow(workload, seed)
    batch_file, _ = setup(runner, tally, workload, seed, 1)
    if tally.failed:
        return {}
    setup_spans = {"spans": []}
    if batch_file:
        path = runner.path("setup.spans")
        s = runner.spawn(CHILD + ["--trace", path, "--run-id", "setup", "batch", "--",
                                  "--seed", str(seed), "--out", runner.path("batch.plc")])
        if not tally.record("traced batch build",
                            [] if s.returncode == 0 else _crash(s, "traced batch build")):
            return {}
        setup_spans = spans.load(path)
    untraced = combine(run_op(workload, runner, tally, pins, batch_file,
                              nmax=TRACE_VERIFY_NMAX))
    trace = runner.path("op.spans")
    traced = combine(run_op(workload, runner, tally, pins, batch_file, trace,
                            nmax=TRACE_VERIFY_NMAX))
    startup = []
    for _ in range(STARTUP_REPEATS):
        s = runner.spawn(FULLEX + ["--version"])
        startup.append(s.wall_s)
        tally.record("--version", [] if s.returncode == 0 else _crash(s, "--version"))
    values = spans.layer_metrics([spans.load(f) for f in sorted(glob.glob(trace + "*"))],
                                 setup_spans)
    if workload == "verify-n16":
        pool_trace = runner.path("pool.spans")
        op_verify(runner, tally, pins, pool_trace, jobs=2, nmax=TRACE_VERIFY_NMAX)
        pool = spans.layer_metrics([spans.load(pool_trace)], {"spans": []})
        values.update({name: pool[name] for name in POOL_METRICS})
    values["cli.startup_s"] = statistics.median(startup)
    env.print()
    print(f"workload {workload} seed {seed} traced wall {traced['wall_s']:.6f} s, "
          f"untraced {untraced['wall_s']:.6f} s (one operation each; the "
          f"difference includes host noise, trace_overhead_s does not)")
    for m in SPEC["per_layer"]:
        name = m["name"]
        print(f"  {name:<42} {values[name]:14.6f} {m['unit']:<5} "
              f"moves {metrics.MOVES[name]}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def run_workload(workload, seed, seconds, trace) -> tuple[Tally, dict]:
    pins = checks.load_pins()
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        runner = Runner(workdir)
        if trace:
            values = traced_run(workload, seed, runner, tally, pins)
        else:
            values = timed_run(workload, seed, seconds, runner, tally, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    return tally, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fullex", "cli.py")):
        sys.stderr.write(f"error: no fullex sources under {SRC}\n")
        return 2
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        tally, values = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        out.update({prefix + k: v for k, v in values.items()})
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    complete = len(out) == len(names) * len(wanted)
    print(json.dumps({"correct": failed == 0 and attempted > 0 and complete,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
