"""Verification pipeline: per-graph analysis digests and the claim suite.

Every catalogued fullerene is reduced to a JSON-friendly digest (faces,
connectivity, cuts, extendability, anti-Kekule data, certificates); claims
are predicates over digests, registered in a table so the report layout is
data-driven.  Reports are deterministic: graphs are keyed by canonical
code, claims run in registration order, and JSON is emitted with sorted
keys.  Digests can be cached in the catalogue sidecar files keyed by
canonical code and invalidated by a hash of the package's sources.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Callable, NamedTuple, Optional

from . import __version__
from . import antikekule as ak_mod
from . import extendability as ext_mod
from . import families
from . import matching as mt
from . import planar_code
from .enumerator import Catalogue, enumerate_catalogues, enumerate_fullerenes
from .graphs import (Edge, PlaneCubicGraph, canonical_code, edge_cuts_up_to,
                     girth, short_cycles_facial, validate_fullerene)


def _edge_list(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def _certificate_digest(adj: dict[int, frozenset[int]], witness) -> dict:
    """Deficiency data for the graph minus the witness pair's endpoints.

    Recomputes the boundary-edge counts of the deleted configuration: for
    every component its edges to S and to the witness endpoints, plus the
    edge counts inside S, inside the endpoint set, and between them, and
    checks the degree-sum identity they must satisfy in a cubic graph.
    """
    e0_verts = sorted({v for e in witness for v in e})
    cert = mt.matching_certificate(adj, witness)
    s = cert.S
    comp_stats = []
    for comp in cert.components:
        m_i = sum(1 for v in comp for w in adj[v] if w in s)
        r_i = sum(1 for v in comp for w in adj[v] if w in e0_verts)
        comp_stats.append({"size": len(comp), "edges_to_s": m_i,
                           "edges_to_witness": r_i})
    r0 = sum(1 for v in e0_verts for w in adj[v] if w in s)
    e_inside_s = sum(1 for v in s for w in adj[v] if w in s and v < w)
    e_inside_w = sum(1 for v in e0_verts for w in adj[v]
                     if w in e0_verts and v < w)
    lhs = sum(c["edges_to_s"] + c["edges_to_witness"] for c in comp_stats)
    rhs = 3 * len(s) + 12 - 2 * e_inside_s - 2 * e_inside_w - 2 * r0
    return {
        "witness": _edge_list(witness),
        "s_size": len(s),
        "component_count": len(cert.components),
        "all_factor_critical": all(cert.factor_critical_flags),
        "matchable": cert.matchable,
        "components": comp_stats,
        "edges_inside_s": e_inside_s,
        "edges_inside_witness": e_inside_w,
        "edges_witness_to_s": r0,
        "boundary_sum": lhs,
        "boundary_identity_holds": lhs == rhs,
        "min_component_boundary": min(
            (c["edges_to_s"] + c["edges_to_witness"] for c in comp_stats),
            default=0),
    }


# each field's JSON type; an entry of another shape is a cache miss
_I, _B, _NONE = (int,), (bool,), type(None)
DIGEST_TYPES = {
    "n": _I, "p4": _I, "p5": _I, "p6": _I, "connectivity": _I, "girth": _I,
    "short_cycles_facial": _B, "nontrivial_cuts_leq3": _I,
    "has_cyclic_cut_leq3": _B, "is_tube": _B, "tube_layers": (int, _NONE),
    "one_extendable": _B, "two_extendable": _B, "three_extendable": _B,
    "extendability": _I, "ak_number": _I, "ak_witness": (list,),
    "certificate": (dict, _NONE)}
CERTIFICATE_TYPES = {
    "witness": (list,), "s_size": _I, "component_count": _I,
    "all_factor_critical": _B, "matchable": _B, "components": (list,),
    "edges_inside_s": _I, "edges_inside_witness": _I, "edges_witness_to_s": _I,
    "boundary_sum": _I, "boundary_identity_holds": _B, "min_component_boundary": _I}


def _well_formed(digest) -> bool:
    """A dict with the digest's fields, each of its JSON type (a bool is no
    int), whose certificate is None or such a dict with its fields."""
    def typed(obj, types: dict) -> bool:
        return (isinstance(obj, dict) and obj.keys() == types.keys()
                and all(type(obj[k]) in t for k, t in types.items()))
    return typed(digest, DIGEST_TYPES) and (
        digest["certificate"] is None
        or typed(digest["certificate"], CERTIFICATE_TYPES))


def analyze_graph(g: PlaneCubicGraph) -> dict:
    """Full analysis digest of one fullerene; plain JSON-able values only.

    Each fact is computed once: the minimal cuts of size <= 3 give the
    connectivity and the nontrivial cut count, which is positive iff some
    cut is cyclic (as in ``graphs``), and one index of all perfect matchings
    serves the preconditions, the k = 1..3 scans and the anti-Kekule search.
    """
    inv = validate_fullerene(g)
    tube = families.recognize_tube(g)
    cuts3 = edge_cuts_up_to(g, 3)
    nontrivial = sum(1 for c in cuts3 if not c.trivial)
    adj = g.adj_dict()
    index = mt.PmIndex(adj)
    ext_mod.check_preconditions(index, ext_mod.K_CAP)
    witnesses = [next(ext_mod.nonextendable_matchings(index, k), None)
                 for k in (1, 2, 3)]
    flags = [w is None for w in witnesses]
    ak = ak_mod.search(index)
    digest = {
        "n": g.n,
        "p4": inv.p4,
        "p5": inv.p5,
        "p6": inv.p6,
        "connectivity": min(len(c.edges) for c in cuts3),
        "girth": girth(g),
        "short_cycles_facial": short_cycles_facial(g),
        "nontrivial_cuts_leq3": nontrivial,
        "has_cyclic_cut_leq3": nontrivial > 0,
        "is_tube": tube is not None,
        "tube_layers": tube.n_layers if tube else None,
        "one_extendable": flags[0],
        "two_extendable": flags[1],
        "three_extendable": flags[2],
        # the first k that fails, as extendability_number's loop stops
        "extendability": (flags + [False]).index(False),
        "ak_number": ak.number,
        "ak_witness": _edge_list(ak.witness_set),
        "certificate": None,
    }
    if witnesses[1] is not None:
        digest["certificate"] = _certificate_digest(adj, witnesses[1])
    return digest


def _tutte_shape(cert: Optional[dict]) -> bool:
    """A certificate in the strong form of Tutte's theorem: two more
    components than deleted vertices, all factor-critical."""
    return (cert is not None and cert["component_count"] == cert["s_size"] + 2
            and cert["all_factor_critical"])


class ClaimResult:
    """Tally of one claim: how many cases it held for, and the failures."""

    def __init__(self, anchor: str, claim: str):
        self.anchor = anchor
        self.claim = claim
        self.population = 0
        self.passes = 0
        self.failures = 0
        self.counterexamples: list = []

    def record(self, ok: bool, counterexample: Optional[dict] = None) -> None:
        self.population += 1
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if counterexample is not None:
                self.counterexamples.append(counterexample)

    def to_json(self) -> dict:
        return {
            "anchor": self.anchor,
            "claim": self.claim,
            "population": self.population,
            "passes": self.passes,
            "failures": self.failures,
            "counterexamples": self.counterexamples,
        }


# per-graph claims: anchor, description, predicate(digest) -> bool
GRAPH_CLAIMS: list[tuple[str, str, Callable[[dict], bool]]] = [
    ("face-count-identity",
     "twice the quadrilaterals plus the pentagons equals 12",
     lambda d: 2 * d["p4"] + d["p5"] == 12 and d["p5"] <= 12),
    ("connectivity-three",
     "vertex connectivity equals 3",
     lambda d: d["connectivity"] == 3),
    ("girth-at-least-four",
     "no 3-cycles",
     lambda d: d["girth"] >= 4),
    ("short-cycles-facial",
     "every 4- and 5-cycle bounds a face",
     lambda d: d["short_cycles_facial"]),
    ("three-edge-cuts-trivial-off-tube",
     "outside the tube family every edge cut of size <= 3 is trivial",
     lambda d: d["is_tube"] or d["nontrivial_cuts_leq3"] == 0),
    ("cyclic-cut-iff-tube",
     "a cyclic edge cut of size <= 3 exists exactly for tubes",
     lambda d: d["has_cyclic_cut_leq3"] == d["is_tube"]),
    ("one-extendable",
     "every edge lies in a perfect matching",
     lambda d: d["one_extendable"]),
    ("not-three-extendable",
     "no fullerene is 3-extendable",
     lambda d: not d["three_extendable"]),
    ("extendability-one-or-two",
     "the extendability number is 1 or 2",
     lambda d: d["extendability"] in (1, 2)),
    ("anti-kekule-three-or-four",
     "the anti-Kekule number is 3 or 4",
     lambda d: d["ak_number"] in (3, 4)),
    ("ak-three-implies-non-two-extendable",
     "anti-Kekule number 3 forces non-2-extendability",
     lambda d: d["ak_number"] != 3 or not d["two_extendable"]),
    ("quad-free-implies-two-extendable",
     "no quadrilaterals forces 2-extendability",
     lambda d: d["p4"] != 0 or d["two_extendable"]),
    ("pentagon-free-nontube-implies-two-extendable",
     "no pentagons and not a tube forces 2-extendability",
     lambda d: d["p5"] != 0 or d["is_tube"] or d["two_extendable"]),
    ("tube-implies-non-two-extendable",
     "tubes are never 2-extendable",
     lambda d: not d["is_tube"] or not d["two_extendable"]),
    ("witness-certificate-shape",
     "each non-2-extendable witness yields a deficiency certificate with "
     "two more components than deleted vertices, all factor-critical, and "
     "component boundary degree at least 3",
     lambda d: d["two_extendable"] or (
         _tutte_shape(d["certificate"])
         and d["certificate"]["matchable"]
         and d["certificate"]["min_component_boundary"] >= 3
         and d["certificate"]["boundary_identity_holds"])),
]


def _counterexample(g: PlaneCubicGraph, digest: dict) -> dict:
    return {
        "canonical": canonical_code(g).hex(),
        "planar_code": planar_code.encode_graph(g).hex(),
        "digest": digest,
    }


class VerificationReport(NamedTuple):
    nmax: int
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.failures == 0 for c in self.claims)

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "nmax": self.nmax,
            "ok": self.ok,
            "claims": [c.to_json() for c in self.claims],
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


@functools.cache
def source_stamp() -> str:
    """sha256 of the package's *.py sources, read in sorted order, once per
    process; hashlib is imported here, so a run without a cache never loads it."""
    import hashlib
    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class DigestCache:
    """Sidecar-backed digest store keyed by canonical code hex."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, n: int) -> str:
        return os.path.join(self.directory, f"fullerenes_n{n}.json")

    def load(self, n: int) -> dict[str, dict]:
        """Cached digests; a missing, undecodable (nested too deep to parse,
        too) or stale sidecar is a miss, and so is an entry that is not a
        dict with the digest's fields, each of its JSON type, or whose
        certificate is neither None nor such a dict with its fields.  A
        sidecar is stale unless `source_stamp` matches the one it holds.
        """
        path = self._path(n)
        if not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError):
            return {}
        if not isinstance(data, dict) or data.get("source_sha256") != source_stamp():
            return {}
        digests = data.get("digests")
        if not isinstance(digests, dict):
            return {}
        return {key: d for key, d in digests.items() if _well_formed(d)}

    def save(self, n: int, catalogue: Catalogue, digests: dict[str, dict]) -> dict:
        path = self._path(n)
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "version": __version__,
            "source_sha256": source_stamp(),
            "n": n,
            "count": catalogue.size,
            "counts_by_faces": {
                f"{k[0]},{k[1]},{k[2]}": v for k, v in sorted(catalogue.counts.items())},
            "digests": digests,
        }
        # write beside the target and rename, so a crash never leaves a
        # half-written sidecar behind
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                # json.dumps without indent runs the C encoder, json.dump never does
                fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return payload


def _process_pool(workers: int):
    """A process pool of `workers` processes.  concurrent.futures, and with
    it multiprocessing, is imported here and in catalogue_digests' parallel
    branch only, so a run that starts no pool never loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


class _LazyPool:
    """A process pool of `workers` processes shared by the catalogue_digests
    calls of one run and started by the first call that needs it."""

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def map(self, fn, items):
        if self._executor is None:
            self._executor = _process_pool(self.workers)
        return self._executor.map(fn, items)

    def __enter__(self) -> "_LazyPool":
        return self

    def __exit__(self, *exc) -> bool:
        if self._executor is not None:
            self._executor.shutdown()
        return False


def catalogue_digests(catalogue: Catalogue, jobs: int = 1,
                      cache: Optional[DigestCache] = None,
                      pool: Optional[_LazyPool] = None) -> dict[str, dict]:
    """Digest per canonical hex for the catalogue, optionally in parallel.

    Output is independent of the worker count: graphs are keyed by their
    canonical code and the mapping is rebuilt in catalogue order.  Workers
    are capped by the CPUs and the uncached graphs; one runs in process.
    More run in `pool` if given, else in a pool of their own.
    """
    cached = cache.load(catalogue.n) if cache else {}
    todo = [g for g in catalogue.graphs
            if canonical_code(g).hex() not in cached]
    workers = min(jobs, os.cpu_count() or 1, len(todo))
    results = None
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool
        try:
            with _LazyPool(workers) as own:  # starts no pool unless used
                results = list((pool or own).map(analyze_graph, todo))
        except (OSError, BrokenProcessPool):
            pass  # analysed serially below
    if results is None:
        results = [analyze_graph(g) for g in todo]
    fresh = {canonical_code(g).hex(): digest for g, digest in zip(todo, results)}
    digests = {}
    for g in catalogue.graphs:
        key = canonical_code(g).hex()
        digests[key] = cached[key] if key in cached else fresh[key]
    if cache:
        cache.save(catalogue.n, catalogue, digests)
    return digests


def _tube_suite(nmax: int) -> list[ClaimResult]:
    max_layers = max(2, (nmax - 8) // 6)
    pm_claim = ClaimResult(
        "tube-pm-layer-structure",
        "tube perfect matchings pick exactly one edge per matching layer "
        "(cap stars and traversed gaps) and every such selection extends "
        "to exactly one perfect matching")
    witness_claim = ClaimResult(
        "tube-witness-pair",
        "two traversed edges of one gap never extend to a perfect matching")
    cut_claim = ClaimResult(
        "tube-traversed-cyclic-cuts",
        "every traversed-edge layer is an edge cut separating two "
        "cycle-containing sides")
    trip_claim = ClaimResult(
        "tube-recognize-roundtrip",
        "recognize_tube inverts build_tube")
    for layers in range(1, max_layers + 1):
        g, desc = families.build_tube(layers)
        report = families.verify_tube_pm_structure(layers)
        pm_claim.record(report.selection_bijection_holds,
                        {"layers": layers, "pm_count": report.pm_count,
                         "layer_sizes": list(report.layer_sizes)})
        pair = report.gap_pair_in_common_pm
        witness_claim.record(pair is None,
                             {"layers": layers, "pair": pair and _edge_list(pair)})
        # a nontrivial minimal cut of <= 3 edges has a cycle on both sides
        cyclic = {c.edges for c in edge_cuts_up_to(g, 3) if not c.trivial}
        cut_claim.record(all(layer in cyclic for layer in desc.traversed_edges),
                         {"layers": layers})
        rec = families.recognize_tube(g)
        trip_claim.record(rec is not None and rec.n_layers == layers,
                          {"layers": layers})
    return [pm_claim, witness_claim, cut_claim, trip_claim]


SPORADIC_SIZES = (12, 14, 18, 20)


class SporadicCandidate(NamedTuple):
    graph: PlaneCubicGraph
    n: int
    witness_pair: tuple[Edge, Edge]
    ak: int


def _is_sporadic(d: dict) -> bool:
    """The sporadic filter: not a tube, anti-Kekule number 3, and not
    2-extendable.  The tube clause is kept as the paper's wording; on tubes
    the ak = 3 test already excludes them (ak is 4 for 1 to 6 layers)."""
    return not d["is_tube"] and d["ak_number"] == 3 and not d["two_extendable"]


def sporadic_candidates(n: int, catalogue=None) -> list[SporadicCandidate]:
    """The fullerenes on n vertices that pass the sporadic filter, by
    canonical code, each with its digest's witness: the lexicographically
    first pair of edges in no perfect matching."""
    if n not in SPORADIC_SIZES:
        raise ValueError(f"sporadic sizes are 12, 14, 18 and 20, not {n}")
    if catalogue is None:
        catalogue = enumerate_fullerenes(n)
    out = []
    for g in sorted(catalogue.graphs, key=canonical_code):
        d = analyze_graph(g)
        if _is_sporadic(d):
            pair = tuple(tuple(e) for e in d["certificate"]["witness"])
            out.append(SporadicCandidate(g, n, pair, 3))
    return out


def _sporadic_suite(nmax: int, catalogues: dict[int, Catalogue],
                    digests: dict[int, dict[str, dict]]) -> list[ClaimResult]:
    present = ClaimResult(
        "sporadic-candidates-present",
        "at sizes 12, 14, 18 and 20 the filter (not a tube, anti-Kekule "
        "number 3, non-2-extendable) is nonempty")
    certs = ClaimResult(
        "sporadic-witness-certificates",
        "every sporadic candidate's witness certificate has two more "
        "components than deleted vertices, all factor-critical")
    for n in SPORADIC_SIZES:
        if n > nmax:
            continue
        pairs = [(g, digests[n][canonical_code(g).hex()]) for g in catalogues[n].graphs]
        cands = [(g, d) for g, d in pairs if _is_sporadic(d)]
        present.record(bool(cands), {"n": n, "candidates": len(cands)})
        for g, d in cands:
            certs.record(_tutte_shape(d["certificate"]), _counterexample(g, d))
    return [present, certs]


def verify_all(nmax: int, jobs: int = 1,
               cache_dir: Optional[str] = None) -> VerificationReport:
    """Run every registered claim over the catalogues up to nmax.

    Raises enumerator.BoundExceeded when nmax is below 8, where no catalogue
    exists and every claim would hold vacuously.
    """
    if nmax % 2 != 0:
        nmax -= 1
    cache = DigestCache(cache_dir) if cache_dir else None
    sizes = list(range(8, nmax + 1, 2))
    # an empty range is refused as its one out-of-range size
    catalogues = enumerate_catalogues(sizes or [nmax])
    # one pool for every size: starting one per size costs more than the
    # analysis of the small ones
    with _LazyPool(min(jobs, os.cpu_count() or 1)) as pool:
        digests = {n: catalogue_digests(catalogues[n], jobs=jobs, cache=cache,
                                        pool=pool)
                   for n in sizes}
    claims = [ClaimResult(anchor, text) for anchor, text, _ in GRAPH_CLAIMS]
    for n in sizes:
        for g in catalogues[n].graphs:
            d = digests[n][canonical_code(g).hex()]
            for claim, (_, _, pred) in zip(claims, GRAPH_CLAIMS):
                ok = bool(pred(d))
                claim.record(ok, None if ok else _counterexample(g, d))
    ak_exists = ClaimResult(
        "ak-three-exists-each-even-size",
        "every even size from 10 up has a fullerene with anti-Kekule number 3")
    for n in sizes:
        if n < 10:
            continue
        found = any(d["ak_number"] == 3 for d in digests[n].values())
        ak_exists.record(found, {"n": n})
    claims.append(ak_exists)
    claims.extend(_tube_suite(nmax))
    claims.extend(_sporadic_suite(nmax, catalogues, digests))
    return VerificationReport(nmax, tuple(claims))
