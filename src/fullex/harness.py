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
from typing import Callable, Iterable, NamedTuple, Optional

from . import __version__
from . import antikekule as ak_mod
from . import extendability as ext_mod
from . import families
from . import matching as mt
from . import planar_code
from .enumerator import Catalogue, enumerate_catalogues
from .graphs import (PlaneCubicGraph, canonical_code, connectivity, edge_cuts_up_to,
                     from_rotation, girth, has_cyclic_cut_leq3, short_cycles_facial,
                     validate_fullerene)


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
    connectivity, the cyclic-cut flag and the nontrivial cut count, and one
    index of all perfect matchings serves the preconditions, the k = 1..3
    scans and the anti-Kekule search.
    """
    inv = validate_fullerene(g)
    tube = families.recognize_tube(g)
    cuts3 = edge_cuts_up_to(g, 3)
    adj = g.adj_dict()
    index = mt.PmIndex(adj)
    ext_mod.check_preconditions(index, ext_mod.K_CAP)
    witnesses = [next(ext_mod.nonextendable_matchings(index, k), None)
                 for k in (1, 2, 3)]
    flags = [w is None for w in witnesses]
    ak = ak_mod.anti_kekule_number(index)
    digest = {
        "n": g.n,
        "p4": inv.p4,
        "p5": inv.p5,
        "p6": inv.p6,
        "connectivity": connectivity(cuts3),
        "girth": girth(g),
        "short_cycles_facial": short_cycles_facial(g),
        "nontrivial_cuts_leq3": sum(1 for c in cuts3 if not c.trivial),
        "has_cyclic_cut_leq3": has_cyclic_cut_leq3(cuts3),
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


class ClaimResult(NamedTuple):
    """Tally of one claim: how many cases it held for, and the failures."""
    anchor: str
    claim: str
    population: int
    passes: int
    failures: int
    counterexamples: list


def _claim(anchor: str, text: str,
           cases: Iterable[tuple[bool, Optional[dict]]]) -> ClaimResult:
    """The tally of `(ok, counterexample)` cases; a counterexample is kept
    only for a failing case, and only when it is not None."""
    cases = list(cases)
    failed = [cx for ok, cx in cases if not ok]
    return ClaimResult(anchor, text, len(cases), len(cases) - len(failed),
                       len(failed), [cx for cx in failed if cx is not None])


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


def _graph_case(ok: bool, g: PlaneCubicGraph, digest: dict) -> tuple[bool, Optional[dict]]:
    """A per-graph case, its counterexample made only when it fails."""
    return ok, None if ok else _counterexample(g, digest)


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
            "claims": [c._asdict() for c in self.claims],
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
    if cache and todo:  # a sidecar that held every digest is left as read
        cache.save(catalogue.n, catalogue, digests)
    return digests


def _tube_suite(nmax: int) -> list[ClaimResult]:
    rows = []
    for layers in range(1, max(2, (nmax - 8) // 6) + 1):
        g, desc = families.build_tube(layers)
        report = families.verify_tube_pm_structure(g, desc)
        pair = report.gap_pair_in_common_pm
        # a nontrivial minimal cut of <= 3 edges has a cycle on both sides
        cyclic = {c.edges for c in edge_cuts_up_to(g, 3) if not c.trivial}
        # its mirror image relabelled v -> v + 3 (mod n): cap centres off 0
        n = g.n
        rec = families.recognize_tube(from_rotation(n, [
            tuple((w + 3) % n for w in reversed(g.rot[(v - 3) % n])) for v in range(n)]))
        rows.append((
            (report.selection_bijection_holds, {"layers": layers, "pm_count": report.pm_count,
                                                "layer_sizes": list(report.layer_sizes)}),
            (pair is None, {"layers": layers, "pair": pair and _edge_list(pair)}),
            (all(layer in cyclic for layer in desc.traversed_edges), {"layers": layers}),
            (rec is not None and rec.n_layers == layers
             and set(rec.cap_centers) == {(c + 3) % n for c in desc.cap_centers},
             {"layers": layers})))
    texts = [
        ("tube-pm-layer-structure",
         "tube perfect matchings pick exactly one edge per matching layer "
         "(cap stars and traversed gaps) and every such selection extends "
         "to exactly one perfect matching"),
        ("tube-witness-pair",
         "two traversed edges of one gap never extend to a perfect matching"),
        ("tube-traversed-cyclic-cuts",
         "every traversed-edge layer is an edge cut separating two "
         "cycle-containing sides"),
        ("tube-recognize-roundtrip", "recognize_tube inverts build_tube")]
    return [_claim(anchor, text, cases)
            for (anchor, text), cases in zip(texts, zip(*rows))]


SPORADIC_SIZES = (12, 14, 18, 20)


def _is_sporadic(d: dict) -> bool:
    """The sporadic filter: not a tube, anti-Kekule number 3, and not
    2-extendable.  The tube clause is kept as the paper's wording; on tubes
    the ak = 3 test already excludes them (ak is 4 for 1 to 6 layers)."""
    return not d["is_tube"] and d["ak_number"] == 3 and not d["two_extendable"]


def _sporadic_suite(rows: dict[int, list[tuple[PlaneCubicGraph, dict]]]) -> list[ClaimResult]:
    cands = {n: [(g, d) for g, d in rows[n] if _is_sporadic(d)]
             for n in SPORADIC_SIZES if n in rows}
    return [
        _claim("sporadic-candidates-present",
               "at sizes 12, 14, 18 and 20 the filter (not a tube, anti-Kekule "
               "number 3, non-2-extendable) is nonempty",
               ((bool(c), {"n": n, "candidates": len(c)}) for n, c in cands.items())),
        _claim("sporadic-witness-certificates",
               "every sporadic candidate's witness certificate has two more "
               "components than deleted vertices, all factor-critical",
               (_graph_case(_tutte_shape(d["certificate"]), g, d)
                for c in cands.values() for g, d in c))]


def verify_all(nmax: int, jobs: int = 1,
               cache_dir: Optional[str] = None) -> VerificationReport:
    """Run every registered claim over the catalogues up to nmax.

    Raises enumerator.BoundExceeded when nmax is below 8, where no catalogue
    exists and every claim would hold vacuously, and families.BadLayerCount
    before any enumeration when its tubes outgrow the exhaustive check.
    """
    if nmax % 2 != 0:
        nmax -= 1
    # first, so that a tube past the exhaustive check is refused before the walk
    tube_claims = _tube_suite(nmax)
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
    rows = {n: [(g, digests[n][canonical_code(g).hex()]) for g in catalogues[n].graphs]
            for n in sizes}
    claims = [_claim(anchor, text, (_graph_case(pred(d), g, d)
                                    for n in sizes for g, d in rows[n]))
              for anchor, text, pred in GRAPH_CLAIMS]
    claims.append(_claim(
        "ak-three-exists-each-even-size",
        "every even size from 10 up has a fullerene with anti-Kekule number 3",
        ((any(d["ak_number"] == 3 for _, d in rows[n]), {"n": n})
         for n in sizes if n >= 10)))
    claims.extend(tube_claims)
    claims.extend(_sporadic_suite(rows))
    return VerificationReport(nmax, tuple(claims))
