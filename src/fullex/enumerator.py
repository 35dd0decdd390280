"""Isomorph-free generation of all (4,5,6)-fullerenes up to a vertex bound.

Two independent routes:

* ``enumerate_fullerenes`` works on the dual side: simple sphere
  triangulations are grown from K4 by vertex splitting (every simple
  triangulation on five or more vertices contracts to a smaller one, so
  level-by-level splitting with isomorph rejection is complete), those with
  all degrees in {4, 5, 6} are dualized, and the duals are validated.
  Isomorph rejection keys each child by a BFS code started only from its
  darts of least local signature (`_tri_key`), and the requested level
  keys only the children that pass the degree test.
* ``naive_enumerate`` searches rotation systems directly in a breadth-first
  normal form with face-size pruning; it exists only to certify the fast
  route and assumes nothing about the structure of the result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graphs import (GraphError, PlaneCubicGraph, _bfs_code, _trace_faces,
                     canonical_code, canonical_form, faces, from_rotation,
                     is_fullerene, validate_fullerene)

DEFAULT_BOUND = 20
NAIVE_BOUND = 14


class EnumerationError(ValueError):
    pass


class BoundExceeded(EnumerationError):
    pass


class OddVertexCount(EnumerationError):
    pass


def configured_bound() -> int:
    value = os.environ.get("FULLEX_NMAX")
    if value is None:
        return DEFAULT_BOUND
    try:
        return int(value)
    except ValueError:
        raise EnumerationError(
            f"FULLEX_NMAX must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Catalogue:
    n: int
    graphs: tuple[PlaneCubicGraph, ...]
    counts: dict[tuple[int, int, int], int]

    @property
    def size(self) -> int:
        return len(self.graphs)

    def canonical_codes(self) -> list[bytes]:
        return [canonical_code(g) for g in self.graphs]


def _catalogue_from(graphs) -> tuple[tuple[PlaneCubicGraph, ...], dict]:
    """One member per class, in canonical labelling, sorted by canonical code.

    The labels depend only on the code, so every route to a class (and any
    rewrite of a route) yields the same rotation system for it.
    """
    by_code: dict[bytes, PlaneCubicGraph] = {}
    for g in graphs:
        by_code.setdefault(canonical_code(g), g)
    ordered = tuple(canonical_form(by_code[c]) for c in sorted(by_code))
    counts: dict[tuple[int, int, int], int] = {}
    for g in ordered:
        inv = faces(g)
        key = (inv.p4, inv.p5, inv.p6)
        counts[key] = counts.get(key, 0) + 1
    return ordered, counts


# ---------------------------------------------------------------------------
# Dual route: triangulations by vertex splitting
# ---------------------------------------------------------------------------

Rotation = tuple[tuple[int, ...], ...]

_K4_ROT: Rotation = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))

_tri_levels: list[dict[bytes, Rotation]] = []


def _check_triangulation(n: int, rot: Rotation) -> bool:
    walks = _trace_faces(n, rot)
    m = sum(len(r) for r in rot) // 2
    return all(len(w) == 3 for w in walks) and n - m + len(walks) == 2


def _split_vertex(n: int, rot: Rotation, w: int, a: int, b: int) -> Rotation:
    """Split vertex w along rotation positions a < b; new vertex gets id n."""
    r = rot[w]
    v_new = n
    arc_u = r[a:b + 1]
    arc_v = r[b:] + r[:a + 1]
    new_rot = list(rot)
    new_rot[w] = arc_u + (v_new,)
    new_rot.append(arc_v + (w,))
    p, q = r[a], r[b]
    for x in set(r):
        rr = list(rot[x])
        i = rr.index(w)
        if x == p:
            rr[i:i + 1] = [w, v_new]
        elif x == q:
            rr[i:i + 1] = [v_new, w]
        elif x in arc_v:
            rr[i] = v_new
        else:
            continue
        new_rot[x] = tuple(rr)
    return tuple(new_rot)


def _tri_key(n: int, rot: Rotation) -> bytes:
    """Dedup key of a triangulation: the least BFS code from its least roots.

    The signature of a dart (u, v) is (deg u, deg v, min, max) of the
    degrees of the two apexes x, y, the third vertices of the triangles on
    either side of uv.  The roots are the darts of least signature, and the
    key is the least `_bfs_code` over the roots in both orientations.

    Proof that the key is canonical.  Let phi map T1 onto T2, preserving
    the orientation or reversing it.  phi preserves degrees and maps the
    two triangles on uv onto the two on phi(u)phi(v), so it maps the
    apexes {x, y} onto the apexes of the image dart; a reversal only swaps
    the two sides, which min and max ignore.  So every dart keeps its
    signature, and phi maps the root set of T1 onto that of T2.  The BFS
    from a root in one orientation of T1 and the BFS from its image in the
    matching orientation of T2 label corresponding vertices alike and emit
    the same code.  Both keys are thus the least of the same set of codes.
    Conversely a BFS code lists the whole rotation system in its own
    labelling, so equal keys mean isomorphic embeddings up to mirroring,
    exactly as equal `rotation_code`s do.
    """
    deg = [len(r) for r in rot]
    least = None
    roots: list[tuple[int, int]] = []
    for u in range(n):
        r = rot[u]
        k = len(r)
        for i in range(k):
            x, y = deg[r[i - 1]], deg[r[(i + 1) % k]]
            sig = (deg[u], deg[r[i]], x, y) if x < y else (deg[u], deg[r[i]], y, x)
            if least is None or sig < least:
                least = sig
                roots = [(u, r[i])]
            elif sig == least:
                roots.append((u, r[i]))
    best: list[int] | None = None
    for rr in (rot, tuple(r[::-1] for r in rot)):
        for u, v in roots:
            cand = _bfs_code(n, rr, u, v, best)
            if cand is not None:
                best = cand
    assert best is not None
    return bytes(best)


def _children(n: int, parents, leaves: bool = False) -> dict[bytes, Rotation]:
    """The vertex splits of triangulations on n vertices, one per class.

    With `leaves`, only the splits whose child has every degree in
    {4, 5, 6} are made and keyed.  The child's degrees are read off the
    parent: splitting w (degree d) at rotation positions a < b gives w
    degree b - a + 2 and the new vertex d - b + a + 2, r[a] and r[b] each
    gain one, and every other vertex keeps its degree.
    """
    level: dict[bytes, Rotation] = {}
    for rot in parents:
        deg = [len(r) for r in rot]
        bad = [x for x in range(n) if not 4 <= deg[x] <= 6]
        if leaves and len(bad) > 3:
            continue  # a split changes the degrees of three vertices only
        for w in range(n):
            r = rot[w]
            d = deg[w]
            for a in range(d):
                for b in range(a + 1, d):
                    if leaves and not (
                            2 <= b - a <= 4 and 2 <= d - b + a <= 4
                            and deg[r[a]] < 6 and deg[r[b]] < 6
                            and all(x in (w, r[a], r[b]) for x in bad)):
                        continue
                    child = _split_vertex(n, rot, w, a, b)
                    level.setdefault(_tri_key(n + 1, child), child)
    return level


def _triangulations(v: int) -> list[Rotation]:
    """All simple sphere triangulations on v vertices (cached, key order)."""
    if v < 4:
        return []
    if not _tri_levels:
        _tri_levels.append({_tri_key(4, _K4_ROT): _K4_ROT})
    while len(_tri_levels) < v - 3:
        n = len(_tri_levels) + 3
        _tri_levels.append(_children(n, _tri_levels[-1].values()))
    return [rot for _, rot in sorted(_tri_levels[v - 4].items())]


def _fullerene_triangulations(v: int) -> list[Rotation]:
    """The triangulations on v vertices with every degree in {4, 5, 6}.

    One per class, unordered.  Level v is neither built in full nor
    stored: only its leaves are split off level v - 1.
    """
    return list(_children(v - 1, _triangulations(v - 1), leaves=True).values())


def _dualize(n: int, rot: Rotation) -> PlaneCubicGraph:
    """Dual of a sphere triangulation: one cubic vertex per triangle face."""
    triangles = _trace_faces(n, rot)
    face_id = {(t[i - 1], t[i]): f for f, t in enumerate(triangles) for i in range(3)}
    # each triangle's neighbours: the faces across its edges, in walk order
    dual_rot = [tuple(face_id[(t[(i + 1) % 3], t[i])] for i in range(3))
                for t in triangles]
    return from_rotation(len(triangles), dual_rot)


def enumerate_fullerenes(n: int, bound: int | None = None) -> Catalogue:
    """Complete isomorph-free catalogue of (4,5,6)-fullerenes on n vertices."""
    if n % 2 != 0:
        raise OddVertexCount(f"cubic graphs have even order, got {n}")
    limit = configured_bound() if bound is None else bound
    if not 8 <= n <= limit:
        raise BoundExceeded(f"n = {n} outside the enumeration range 8..{limit}")
    cached = _fast_cache.get(n)
    if cached is not None:
        return cached
    v = n // 2 + 2
    duals = [_dualize(v, rot) for rot in _fullerene_triangulations(v)]
    graphs, counts = _catalogue_from(g for g in duals if is_fullerene(g))
    cat = Catalogue(n, graphs, counts)
    _fast_cache[n] = cat
    return cat


_fast_cache: dict[int, Catalogue] = {}


# ---------------------------------------------------------------------------
# Naive route: rotation systems in BFS normal form
# ---------------------------------------------------------------------------

def naive_enumerate(n: int) -> Catalogue:
    """Exhaustive rotation-system search; the completeness oracle.

    Rotation systems are generated in a breadth-first normal form (labels
    in discovery order, each vertex's rotation read from its discovery
    edge), which enumerates every embedding at least once per rooted
    orientation.  Pruning uses only the face-size definition: a traced
    facial walk may never exceed six edges and must close at 4, 5 or 6.
    """
    if n % 2 != 0:
        raise OddVertexCount(f"cubic graphs have even order, got {n}")
    if not 4 <= n <= NAIVE_BOUND:
        raise BoundExceeded(f"naive search is bounded at {NAIVE_BOUND}")
    cached = _naive_cache.get(n)
    if cached is not None:
        return cached

    found: list[PlaneCubicGraph] = []
    rot: list[tuple[int, int, int] | None] = [None] * n
    declared: list[list[int]] = [[] for _ in range(n)]

    def orbit_ok(dart: tuple[int, int]) -> bool:
        """Walk the facial orbit through one dart; False when it is already
        longer than 6 darts or closes at a size outside {4, 5, 6}.

        Only orbits through the freshly finalized vertex can have changed,
        so each processing step checks just its three incoming darts.
        """
        back = 0
        cur = dart
        while True:
            a, b = cur
            ra = rot[a]
            if ra is None:
                break
            cur = (ra[(ra.index(b) - 1) % 3], a)
            back += 1
            if cur == dart:
                return back in (4, 5, 6)
            if back > 6:
                return False
        darts = 1
        a, b = cur
        while True:
            rb = rot[b]
            if rb is None:
                return True
            a, b = b, rb[(rb.index(a) + 1) % 3]
            darts += 1
            if darts > 6:
                return False

    def process(v: int, num_labels: int) -> None:
        if v == num_labels:
            if num_labels == n:
                try:
                    g = from_rotation(n, [tuple(r) for r in rot])  # type: ignore[arg-type]
                    validate_fullerene(g)
                except GraphError:
                    return
                found.append(g)
            return
        entry = declared[v][0]
        forced = declared[v][1:]
        existing = [w for w in range(num_labels)
                    if w > v and w != entry and w not in declared[v]
                    and len(declared[w]) < 3]
        options: list[tuple[int | None, int | None]] = []
        cands: list[int | None] = [*existing]
        if num_labels < n:
            cands.append(None)  # a brand-new vertex
        if len(forced) == 2:
            options = [(forced[0], forced[1]), (forced[1], forced[0])]
        elif len(forced) == 1:
            for c in cands:
                options.append((forced[0], c))
                options.append((c, forced[0]))
        else:
            for c1 in cands:
                for c2 in cands:
                    if c1 is None and c2 is None:
                        if num_labels + 2 <= n:
                            options.append((None, None))
                    elif c1 != c2:
                        options.append((c1, c2))
        seen_opts = set()
        for s1, s2 in options:
            if (s1, s2) in seen_opts:
                continue
            seen_opts.add((s1, s2))
            labels = num_labels
            slots = []
            new_vertices = []
            ok = True
            for s in (s1, s2):
                if s is None:
                    if labels >= n:
                        ok = False
                        break
                    s = labels
                    labels += 1
                    new_vertices.append(s)
                slots.append(s)
            if not ok or slots[0] == slots[1]:
                continue
            rot[v] = (entry, slots[0], slots[1])
            touched = []
            for s in slots:
                # forced neighbors already recorded this edge when they chose v
                if s not in forced:
                    declared[s].append(v)
                    touched.append(s)
            if all(orbit_ok((x, v)) for x in rot[v]):
                process(v + 1, labels)
            for s in touched:
                declared[s].pop()
            rot[v] = None

    rot[0] = (1, 2, 3)
    declared[1].append(0)
    declared[2].append(0)
    declared[3].append(0)
    process(1, 4)
    graphs, counts = _catalogue_from(found)
    cat = Catalogue(n, graphs, counts)
    _naive_cache[n] = cat
    return cat


_naive_cache: dict[int, Catalogue] = {}
