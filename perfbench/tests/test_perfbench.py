"""The benchmark's own tests: its checks can fail and its inputs repeat.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import batch  # noqa: E402  (puts src/ on the path)
import checks  # noqa: E402
import child  # noqa: E402
import metrics  # noqa: E402
import ruler  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fullex import planar_code  # noqa: E402
from fullex.graphs import canonical_code  # noqa: E402
from fullex.harness import GRAPH_CLAIMS, analyze_graph  # noqa: E402

PINS = checks.load_pins()


def _bytes(seed: int, copy: int = 0) -> bytes:
    buf = io.BytesIO()
    planar_code.write_graphs(buf, batch.build_batch(seed, PINS["graphs"], copy))
    return buf.getvalue()


def test_batch_is_deterministic_per_seed_and_copy():
    assert _bytes(3) == _bytes(3)
    assert _bytes(3, 1) == _bytes(3, 1)
    assert len({_bytes(3), _bytes(3, 1), _bytes(4)}) == 3


def test_batch_holds_the_pinned_classes_once_each():
    codes = [canonical_code(g).hex() for g in batch.build_batch(5, PINS["graphs"])]
    assert len(codes) == 18
    assert sorted(codes) == sorted(PINS["graphs"])


def test_batch_file_ignores_the_programs_labels_and_order(tmp_path, monkeypatch):
    first = tmp_path / "first.plc"
    assert batch.main(["--seed", "6", "--out", str(first)]) == 0
    shuffled = batch.source_graphs()[::-1]
    rng = random.Random(0)
    monkeypatch.setattr(batch, "source_graphs",
                        lambda: [batch.relabel(g, rng) for g in shuffled])
    second = tmp_path / "second.plc"
    assert batch.main(["--seed", "6", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_batch_build_fails_when_the_classes_differ(tmp_path, monkeypatch):
    fewer = batch.source_graphs()[1:]
    monkeypatch.setattr(batch, "source_graphs", lambda: fewer)
    assert batch.main(["--seed", "6", "--out", str(tmp_path / "b.plc")]) == 1


@pytest.fixture(scope="module")
def small_digests():
    """Real digests of the relabelled batch graphs up to 16 vertices."""
    graphs = [g for g in batch.build_batch(9, PINS["graphs"]) if g.n <= 16]
    digests = {canonical_code(g).hex(): analyze_graph(g) for g in graphs}
    pins = {"graphs": {k: PINS["graphs"][k] for k in digests}}
    return digests, pins


def test_cold_pass_passes_on_true_digests(small_digests):
    digests, pins = small_digests
    assert checks.check_cold_pass(digests, pins, GRAPH_CLAIMS) == []


def test_flipped_ak_pin_counts_toward_fail_rate(small_digests):
    digests, pins = small_digests
    key = sorted(digests)[0]
    flipped = json.loads(json.dumps(pins))
    flipped["graphs"][key]["ak_number"] = 7 - flipped["graphs"][key]["ak_number"]
    tally = run.Tally()
    tally.record("cold pass", checks.check_cold_pass(digests, flipped, GRAPH_CLAIMS))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ak_number" in tally.problems[0]


def test_failed_claim_is_reported(small_digests):
    digests, pins = small_digests
    broken = json.loads(json.dumps(digests))
    key = sorted(broken)[0]
    broken[key]["girth"] = 3
    pins = json.loads(json.dumps(pins))
    pins["graphs"][key]["girth"] = 3
    problems = checks.check_cold_pass(broken, pins, GRAPH_CLAIMS)
    assert any("girth-at-least-four" in p for p in problems)


def test_warm_pass_needs_zero_misses_and_equal_digests(small_digests):
    digests, _ = small_digests
    warm = json.loads(json.dumps(digests))
    assert checks.check_warm_pass(digests, warm, 0) == []
    assert checks.check_warm_pass(digests, warm, 1)
    warm[sorted(warm)[0]]["ak_number"] = 0
    assert checks.check_warm_pass(digests, warm, 0)


def test_warm_misses_are_counted_at_the_cache(tmp_path):
    graphs = [g for g in batch.build_batch(4, PINS["graphs"]) if g.n <= 10]
    cats = child._catalogues(graphs)
    cold = child._LoadLog(str(tmp_path))
    digests = child._digest_all(cats, cold)
    assert len(set(digests) - cold.loaded) == len(graphs)
    warm = child._LoadLog(str(tmp_path))
    assert child._digest_all(cats, warm) == digests
    assert not set(digests) - warm.loaded


def _cli_stdout(command: str, pins: dict, flip: str | None = None) -> bytes:
    records = []
    for key, want in sorted(pins["graphs"].items()):
        rec = {"canonical": key, "ok": True, "p4": want["p4"], "p5": want["p5"],
               "p6": want["p6"], "extendable": want["two_extendable"],
               "number": want["ak_number"]}
        if key == flip:
            rec["number"] = 7 - rec["number"]
        records.append(rec)
    if command == "canonical":
        return json.dumps({"codes": sorted(pins["graphs"])}).encode()
    return json.dumps({"command": command, "graphs": records}).encode()


def test_cli_checks_accept_pinned_answers():
    for command in checks.CLI_COMMANDS:
        code = PINS["cli_exit"][command]
        assert checks.check_cli(command, code, _cli_stdout(command, PINS), PINS) == []


def test_wrong_exit_code_counts_toward_fail_rate():
    tally = run.Tally()
    for command in checks.CLI_COMMANDS:
        wrong = 1 - PINS["cli_exit"][command]
        tally.record(command, checks.check_cli(command, wrong,
                                               _cli_stdout(command, PINS), PINS))
    assert (tally.attempted, tally.failed) == (4, 4)
    report = json.dumps({"ok": True, "claims": []}).encode()
    assert any("exited 1" in p for p in checks.check_verify(1, report, PINS, 16))


def test_flipped_ak_number_in_cli_output_fails():
    key = sorted(PINS["graphs"])[0]
    stdout = _cli_stdout("antikekule", PINS, flip=key)
    assert checks.check_cli("antikekule", 0, stdout, PINS)


def test_unparsable_output_fails():
    assert checks.check_cli("validate", 0, b"not json", PINS)
    assert checks.check_verify(0, b"", PINS, 16)


def test_ruler_output_is_pinned_and_checked():
    stdout = (" ".join(map(str, ruler.counts())) + "\n").encode()
    assert checks.check_ruler(0, stdout, PINS) == []
    assert checks.check_ruler(1, stdout, PINS)
    assert checks.check_ruler(0, stdout.replace(b"125", b"126"), PINS)


def test_traced_child_records_layer_spans(tmp_path):
    plc = tmp_path / "batch.plc"
    planar_code.write_file(str(plc), [g for g in batch.build_batch(2, PINS["graphs"])
                                      if g.n <= 12])
    trace = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--trace", str(trace),
         "cli", "--", "antikekule", str(plc)],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    v = spans.layer_metrics([spans.load(str(trace))], {"spans": []})
    assert v["cli.main.antikekule.s"] > v["antikekule.anti_kekule_number.s"] > 0
    assert v["planar_code.bytes"] == plc.stat().st_size
    assert v["matching.perfect_matchings.count"] == 9 + 11 + 12 + 20
    assert 0 < v["trace_overhead_s"] < v["cli.main.antikekule.s"]


def test_every_per_layer_metric_says_what_it_moves():
    assert set(metrics.MOVES) == {m["name"] for m in run.SPEC["per_layer"]}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
