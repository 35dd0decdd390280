"""Acceptance criteria, one test per criterion, each printing a verdict line.

Populations are exhaustive catalogues up to the stated bound; expected
values come from independent oracles (brute-force search, the naive
enumerator) or are pinned structural facts checked at zero tolerance.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from fullex import extendability as E
from fullex import families as F
from fullex import graphs as G
from fullex import harness
from fullex import matching as M

from conftest import (brute_max_matching_size, canonical_codes, catalogue, random_simple_graph,
                      sporadic, witness_pair)


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def population():
    """Catalogues and analysis digests for every fullerene with n <= 18.

    Returns the digests plus the wall time the build took, so the criteria
    with runtime budgets can charge themselves the shared setup cost.
    """
    t0 = time.time()
    out = {}
    for n in range(8, 19, 2):
        cat = catalogue(n)
        out[n] = [(g, harness.analyze_graph(g)) for g in cat.graphs]
    return out, time.time() - t0


def test_criterion_01_matching_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(123456)
    mismatches = 0
    for _ in range(500):
        adj = random_simple_graph(rng, max_n=12)
        if len(M.maximum_matching(adj)) != brute_max_matching_size(adj):
            mismatches += 1
    elapsed = time.time() - t0
    verdict("1 matching-oracle",
            mismatches == 0 and elapsed < 30,
            f"500 graphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_face_identity(population):
    graphs_by_n, setup_seconds = population
    t0 = time.time()
    bad = [d for graphs in graphs_by_n.values()
           for _, d in graphs if 2 * d["p4"] + d["p5"] != 12]
    total = sum(len(v) for v in graphs_by_n.values())
    elapsed = time.time() - t0 + setup_seconds
    verdict("2 face-identity", not bad and total >= 25 and elapsed < 60,
            f"{total} fullerenes, 8<=n<=18, {elapsed:.1f}s incl. enumeration")


def test_criterion_03_structure_lemmas(population):
    graphs_by_n, _ = population
    bad = []
    for graphs in graphs_by_n.values():
        for g, d in graphs:
            ok = (d["connectivity"] == 3 and d["girth"] >= 4
                  and d["short_cycles_facial"]
                  and (d["is_tube"] or d["nontrivial_cuts_leq3"] == 0))
            if not ok:
                bad.append(G.canonical_code(g).hex())
    verdict("3 structure-lemmas", not bad, f"{len(bad)} exceptions")


def test_criterion_04_cyclic_cut_iff_tube(population):
    graphs_by_n, _ = population
    bad = [G.canonical_code(g).hex()
           for graphs in graphs_by_n.values()
           for g, d in graphs
           if d["has_cyclic_cut_leq3"] != d["is_tube"]]
    verdict("4 cyclic-cut-iff-tube", not bad, f"{len(bad)} exceptions")


def test_criterion_05_tube_suite():
    t0 = time.time()
    ok = True
    details = []
    for layers in (1, 2, 3, 4):
        g, desc = F.build_tube(layers)
        report = F.verify_tube_pm_structure(g, desc)
        # one traversed edge per gap, and the one-edge-per-matching-layer
        # selections (cap stars included) biject with the perfect matchings;
        # spoke-only selections each leave the 3 x 3 cap completions
        structure_ok = (report.one_traversed_per_gap
                        and report.one_star_edge_per_cap
                        and report.every_layer_selection_unique
                        and report.count_matches_layer_product
                        and report.pm_count == 3 ** (layers + 2)
                        and set(report.gap_extension_counts) == {9})
        rep2 = E.is_k_extendable(g, 2)
        witness_ok = (not rep2.extendable
                      and any(set(rep2.witness) <= set(layer)
                              for layer in desc.traversed_edges))
        pairs_ok = all(
            not M.extends_to_perfect(g, pair)
            for layer in desc.traversed_edges
            for pair in itertools.combinations(sorted(layer), 2))
        ok = ok and structure_ok and witness_ok and pairs_ok
        details.append(f"T_{layers}: pm={report.pm_count}")
    elapsed = time.time() - t0
    verdict("5 tube-suite", ok and elapsed < 60,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_extendability_bounds(population):
    graphs_by_n, _ = population
    bad = []
    for graphs in graphs_by_n.values():
        for g, d in graphs:
            ok = (d["one_extendable"] and not d["three_extendable"]
                  and d["extendability"] in (1, 2))
            if not ok:
                bad.append(G.canonical_code(g).hex())
    verdict("6 extendability-bounds", not bad, f"{len(bad)} exceptions")


def test_criterion_07_two_extendability_sufficient_conditions(population):
    graphs_by_n, _ = population
    bad = []
    for graphs in graphs_by_n.values():
        for g, d in graphs:
            if d["p4"] == 0 and not d["two_extendable"]:
                bad.append(("quad-free", G.canonical_code(g).hex()))
            if d["p5"] == 0 and not d["is_tube"] and not d["two_extendable"]:
                bad.append(("pentagon-free", G.canonical_code(g).hex()))
    verdict("7 sufficient-conditions", not bad, f"{len(bad)} exceptions")


def test_criterion_08_anti_kekule(population):
    graphs_by_n, setup_seconds = population
    t0 = time.time()
    bad = []
    ak3_sizes = set()
    for n, graphs in graphs_by_n.items():
        if n > 16:
            continue
        for g, d in graphs:
            if d["ak_number"] not in (3, 4):
                bad.append(("range", G.canonical_code(g).hex()))
            if d["ak_number"] == 3:
                ak3_sizes.add(n)
                if d["two_extendable"]:
                    bad.append(("ak3-but-2-extendable",
                                G.canonical_code(g).hex()))
    missing = [n for n in (10, 12, 14, 16) if n not in ak3_sizes]
    elapsed = time.time() - t0 + setup_seconds
    verdict("8 anti-kekule",
            not bad and not missing and elapsed < 600,
            f"ak=3 at sizes {sorted(ak3_sizes)}, {elapsed:.1f}s")


def test_criterion_09_sporadic_sizes():
    t0 = time.time()
    ok = True
    details = []
    for n in (12, 14, 18, 20):
        t1 = time.time()
        cands = sporadic(n)
        if not cands:
            ok = False
        for g, d in cands:
            covered = {v for e in witness_pair(d) for v in e}
            cert = M.deficiency_certificate(M.induced(g.adj_dict(), covered))
            if not (len(cert.components) == len(cert.S) + 2
                    and all(cert.factor_critical_flags) and cert.matchable):
                ok = False
        if time.time() - t1 > 1800:
            ok = False
        details.append(f"n={n}: {len(cands)} candidates")
    verdict("9 sporadic-sizes", ok,
            "; ".join(details) + f", {time.time()-t0:.1f}s total")


def test_criterion_10_generator_completeness():
    t0 = time.time()
    bad = []
    for n in (8, 10, 12, 14):
        fast = set(canonical_codes(catalogue(n)))
        naive = set(canonical_codes(catalogue(n, naive=True)))
        if fast != naive:
            bad.append(n)
    verdict("10 generator-completeness", not bad,
            f"n in 8..14, {time.time()-t0:.1f}s")


def test_criterion_11_determinism():
    t0 = time.time()

    def run(extra):
        return subprocess.run(
            [sys.executable, "-m", "fullex.cli", "verify-all", "--nmax", "14"]
            + extra, capture_output=True)

    a = run([])
    b = run([])
    c = run(["--jobs", "3"])
    same = a.stdout == b.stdout == c.stdout
    ok = same and a.returncode == 0
    report = json.loads(a.stdout)
    ok = ok and report["ok"] is True
    verdict("11 determinism", ok,
            f"3 byte-identical verify-all runs, {time.time()-t0:.1f}s")
