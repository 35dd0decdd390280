"""Per-layer metrics from the span files the tracer writes."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import MODULES

NAME, TAG, START, END, ACTIVE, PARENT = range(6)
SETUP_SPANS = ("enumerator.enumerate_fullerenes", "families.build_tube",
               "planar_code.write_graphs")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ancestors(spans, i) -> set[str]:
    out = set()
    parent = spans[i][PARENT]
    while parent >= 0:
        out.add(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return out


def _catalogue_digests(v, spans, i, children) -> None:
    jobs, size, cached = spans[i][TAG]
    active = spans[i][ACTIVE]
    above = _ancestors(spans, i)
    if "harness.verify_all" in above:
        v[f"harness.catalogue_digests.jobs{jobs}.s"] += active
    for phase in ("cold", "warm"):
        if f"bench.{phase}_pass" in above:
            v[f"harness.catalogue_digests.{phase}.s"] += active
    if cached:
        # a graph the cache lacks is analysed here or packed for a worker
        misses = sum(1 for c in children[i]
                     if spans[c][NAME] in ("harness.analyze_graph",
                                           "planar_code.encode_graph"))
        v["harness.cache.misses"] += misses
        v["harness.cache.hits"] += size - misses


def layer_metrics(traces: list[dict], setup: dict) -> dict[str, float]:
    """Summed span seconds, self times and counts, keyed like PER_LAYER."""
    v: dict[str, float] = defaultdict(float)
    per_graph = []
    for trace in traces:
        spans = trace["spans"]
        children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[PARENT] >= 0:
                children[span[PARENT]].append(i)
        for i, (name, tag, _, _, active, _) in enumerate(spans):
            self_s = active - sum(spans[c][ACTIVE] for c in children[i])
            module = name.split(".")[0]
            if module in MODULES:
                v[f"layer.{module}.self_s"] += self_s
            v[f"{name}.s"] += active
            if name == "extendability.is_k_extendable":
                v[f"{name}.k{tag}.s"] += active
            elif name == "enumerator.enumerate_fullerenes":
                v[f"{name}.n{tag}.s"] += active
            elif name == "cli.main":
                v[f"cli.main.{tag}.s"] += active
            elif name == "harness.catalogue_digests":
                _catalogue_digests(v, spans, i, children)
            elif name == "harness.analyze_graph":
                per_graph.append(active)
                v["harness.analyze_graph.residual_s"] += self_s
            elif name == "harness.verify_all":
                v["harness.verify_all.claims_s"] += active - sum(
                    spans[c][ACTIVE] for c in children[i]
                    if spans[c][NAME] in ("enumerator.enumerate_fullerenes",
                                          "harness.catalogue_digests"))
        for key, count in trace["counts"].items():
            v[key] += count
        v["trace_overhead_s"] += trace["overhead_s"]
    if len(per_graph) >= 10:
        deciles = statistics.quantiles(per_graph, n=10, method="inclusive")
        v["harness.analyze_graph.p50_s"] = deciles[4]
        v["harness.analyze_graph.p90_s"] = deciles[8]
    elif per_graph:
        v["harness.analyze_graph.p50_s"] = statistics.median(per_graph)
        v["harness.analyze_graph.p90_s"] = max(per_graph)
    for span in setup["spans"]:
        if span[NAME] in SETUP_SPANS:
            v[f"setup.{span[NAME]}.s"] += span[ACTIVE]
    return v
