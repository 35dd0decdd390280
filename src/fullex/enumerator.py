"""Isomorph-free generation of all (4,5,6)-fullerenes up to a vertex bound.

``enumerate_catalogues`` (and ``enumerate_fullerenes`` for one size) works
on the dual side: one walk grows simple sphere triangulations from K4 by
vertex splitting, up to v_max = nmax/2 + 2 vertices, and at each level
dualizes the classes with all degrees in {4, 5, 6}.  A child on v' vertices
is made only when its defect (the summed distance of its degrees from
[4, 6]) is at most 4 (v_max - v'), which every ancestor of a leaf meets
(`_walk`), so the leaves of every size up to nmax come out of the one walk.
Isomorph rejection keys each child by a BFS code started only from its
darts of least local signature (`_tri_key`).

Nothing is cached between calls.  The test suite certifies the catalogues
against an independent rotation-system search.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, NamedTuple

from .graphs import (PlaneCubicGraph, _bfs_code, _trace_faces, canonical_code,
                     canonical_form, faces, from_rotation, is_fullerene)

DEFAULT_BOUND = 20


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


class Catalogue(NamedTuple):
    n: int
    graphs: tuple[PlaneCubicGraph, ...]
    counts: dict[tuple[int, int, int], int]

    @property
    def size(self) -> int:
        return len(self.graphs)

    def canonical_codes(self) -> list[bytes]:
        return [canonical_code(g) for g in self.graphs]


def _catalogue_from(n: int, graphs) -> Catalogue:
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
    return Catalogue(n, ordered, counts)


# ---------------------------------------------------------------------------
# Triangulations by vertex splitting
# ---------------------------------------------------------------------------

Rotation = tuple[tuple[int, ...], ...]

_K4_ROT: Rotation = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


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
    k = min(deg)  # a root starts at a vertex of least degree
    least = None
    roots: list[tuple[int, int]] = []
    for u in (x for x in range(n) if deg[x] == k):
        r = rot[u]
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


def _walk(v_max: int) -> Iterator[tuple[int, list[Rotation]]]:
    """Yield (v, the classes on v vertices with all degrees in {4, 5, 6})
    for v = 4..v_max, each level grown from the last by vertex splitting.

    With the defect delta(T) = sum of dist(deg v, [4, 6]), a child on v'
    vertices is made and keyed only when delta(child) <= 4 (v_max - v'),
    which is delta = 0 at v_max.  delta(child) is read off the parent:
    splitting w (degree d) at rotation positions a < b gives w degree
    b - a + 2 and the new vertex d - b + a + 2, r[a] and r[b] gain one
    each, and no other degree changes.

    Lemma: contracting an edge wu raises delta by at most 4, and two
    vertices of degree 6 whose apexes have degree 4 reach 4.  With
    f(d) = dist(d, [4, 6]), the merged vertex has degree d_w + d_u - 4;
    its excess over 6, (d_w - 5) + (d_u - 5), is at most
    f(d_w) + f(d_u) + 2, and its shortfall below 4, (4 - d_w) + (4 - d_u),
    at most f(d_w) + f(d_u).  The two apexes lose one degree each, which
    raises f by at most 1 each, and no other degree changes.

    Completeness: every simple triangulation on five or more vertices
    contracts to a simple one on one vertex fewer.  By the lemma the
    contraction path of a target on v <= v_max vertices meets
    delta <= 4 (v - v') <= 4 (v_max - v') on v' vertices, so by induction
    the walk makes every class on it: the bound of the largest target
    serves every smaller one.
    """
    dist = [max(4 - d, 0, d - 6) for d in range(v_max + 1)]
    level = [_K4_ROT]
    for n in range(4, v_max + 1):
        yield n, [rot for rot in level if all(4 <= len(r) <= 6 for r in rot)]
        if n == v_max:
            return
        slack = 4 * (v_max - n - 1)
        children: dict[bytes, Rotation] = {}
        for rot in level:
            deg = [len(r) for r in rot]
            delta = sum(dist[d] for d in deg)
            for w in range(n):
                r = rot[w]
                d = deg[w]
                base = delta - dist[d]
                # the change in delta as a rotation neighbour gains one
                gain = [dist[deg[x] + 1] - dist[deg[x]] for x in r]
                for a in range(d):
                    for b in range(a + 1, d):
                        if (base + gain[a] + gain[b] + dist[b - a + 2]
                                + dist[d - b + a + 2] > slack):
                            continue
                        child = _split_vertex(n, rot, w, a, b)
                        children.setdefault(_tri_key(n + 1, child), child)
        level = list(children.values())


def _dualize(n: int, rot: Rotation) -> PlaneCubicGraph:
    """Dual of a sphere triangulation: one cubic vertex per triangle face."""
    triangles = _trace_faces(n, rot)
    face_id = {(t[i - 1], t[i]): f for f, t in enumerate(triangles) for i in range(3)}
    # each triangle's neighbours: the faces across its edges, in walk order
    dual_rot = [tuple(face_id[(t[(i + 1) % 3], t[i])] for i in range(3))
                for t in triangles]
    return from_rotation(len(triangles), dual_rot)


def enumerate_catalogues(sizes: Iterable[int],
                         bound: int | None = None) -> dict[int, Catalogue]:
    """The catalogue of every size in `sizes`, all from one walk."""
    wanted = sorted(set(sizes))
    for n in wanted:
        if n % 2 != 0:
            raise OddVertexCount(f"cubic graphs have even order, got {n}")
        limit = configured_bound() if bound is None else bound
        if not 8 <= n <= limit:
            raise BoundExceeded(f"n = {n} outside the enumeration range 8..{limit}")
    out: dict[int, Catalogue] = {}
    for v, leaves in _walk(wanted[-1] // 2 + 2) if wanted else ():
        n = 2 * v - 4  # a cubic dual has 2v - 4 vertices
        if n in wanted:
            duals = (_dualize(v, rot) for rot in leaves)
            out[n] = _catalogue_from(n, (g for g in duals if is_fullerene(g)))
    return out


def enumerate_fullerenes(n: int, bound: int | None = None) -> Catalogue:
    """Complete isomorph-free catalogue of (4,5,6)-fullerenes on n vertices."""
    return enumerate_catalogues([n], bound)[n]

