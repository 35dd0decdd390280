"""Isomorph-free generation of all (4,5,6)-fullerenes up to a vertex bound.

``enumerate_catalogues`` (and ``enumerate_fullerenes`` for one size) works
on the dual side: one depth-first walk grows simple sphere triangulations
from K4 by vertex splitting, up to v_max = nmax/2 + 2 vertices, and
dualizes the classes with all degrees in {4, 5, 6}.  A child on v' vertices
is made only when its defect (the summed distance of its degrees from
[4, 6]) is at most 2 (v_max - v') (`_walk`), from one split per orbit of
the parent's automorphisms (`_children`), and kept only when its new edge
is canonical (McKay's canonical augmentation, `_canonical_key`), so the
leaves of every size up to nmax come out of the one walk, each once.

Nothing is cached between calls.  The test suite certifies the catalogues
against an independent rotation-system search.
"""

from __future__ import annotations

import os
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple

from .graphs import (FullexError, PlaneCubicGraph, _bfs_code, _code_sweep, _dual,
                     _label_map, _trace_faces, faces, from_code)

DEFAULT_BOUND = 24


class EnumerationError(FullexError):
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


def _catalogue_from(n: int, rotations) -> Catalogue:
    """One member per class, in canonical labelling, sorted by canonical code.

    One `_code_sweep` per rotation system gives its code and chirality, and
    the member is built once, from the code, with its sweep preset: it is
    labelled by the code, and its dart 0 -> 1 in the plain orientation,
    the first root of its sweep, emits it, so its labelling is 0..n-1.
    The labels depend only on the code, so every route to a class (and any
    rewrite of a route) yields the same rotation system for it.  A code
    seen twice raises RuntimeError: the walk emits each class once.
    """
    swept = sorted(_code_sweep(len(rot), rot)[:2] for rot in rotations)
    ordered: list[PlaneCubicGraph] = []
    counts: dict[tuple[int, int, int], int] = {}
    for code, chiral in swept:
        if ordered and ordered[-1]._sweep[0] == code:
            raise RuntimeError(f"class {code.hex()} emitted twice at n = {n}")
        g = from_code(code)
        g._sweep = (code, chiral, range(g.n))
        ordered.append(g)
        inv = faces(g)
        key = (inv.p4, inv.p5, inv.p6)
        counts[key] = counts.get(key, 0) + 1
    return Catalogue(n, tuple(ordered), counts)


# ---------------------------------------------------------------------------
# Triangulations by vertex splitting
# ---------------------------------------------------------------------------

Rotation = tuple[tuple[int, ...], ...]
Group = list[tuple[int, ...]]  # vertex maps, phi[u] the image of u

_K4_ROT: Rotation = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
_K4_GROUP: Group = list(permutations(range(4)))


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


def _canonical_key(n: int, rot: Rotation, x: int, y: int) -> tuple[bytes, Group] | None:
    """(the key of `rot`, its automorphism group) if its edge xy is
    canonical, else None.

    An edge uv is contractible when u and v have exactly two common
    neighbours, the apexes of its triangles; contracting it gives a simple
    triangulation, and every one but K4 has such an edge.  The candidates
    are the contractible edges of least `invariant`: (degree sum, least
    degree, the apex degrees sorted).  A root is a dart s -> t read in one
    orientation; `roots` keeps those of least signature (deg s, the apex
    degrees before and after t at s).  The key is the least `_bfs_code`
    from the roots on candidates; xy is canonical when a root on it emits it.

    Proof.  An isomorphism phi, orientation-reversing or not, preserves
    degrees and common neighbours and maps the triangles on uv onto those
    on phi(u)phi(v), so it maps candidates onto candidates (a reversal
    swaps the apexes, which the sort ignores) and roots onto roots read in
    the matching orientation.  A root and its image emit the same code, so
    the keys are the least of the same codes; a code lists the whole
    rotation system, so equal keys mean isomorphic embeddings up to
    mirroring, as equal `_code_sweep` codes do.  Two roots emitting one code
    are related by their `_label_map`, an automorphism or a reflection: the
    roots emitting the key form one orbit, and so do the canonical edges.
    Every automorphism maps the first such root onto one of them, so the
    maps from the first to each are the whole group, the orientation
    reversals included, at no extra BFS.
    """
    deg = [len(q) for q in rot]

    def invariant(u: int, i: int) -> tuple[int, int, int, int]:
        r = rot[u]
        du, dv, a, b = deg[u], deg[r[i]], deg[r[i - 1]], deg[r[(i + 1) % deg[u]]]
        return (du + dv, min(du, dv), min(a, b), max(a, b))

    def roots(u: int, v: int) -> list[tuple[int, int, int]]:
        """(mirrored, tail, head) of least signature on the candidate uv."""
        return [(m, s, t) for s, t in ((u, v), (v, u)) if deg[s] == least[1]
                for m, j in ((0, -1), (1, 1))
                if deg[rot[s][(rot[s].index(t) + j) % deg[s]]] == least[2]]

    if len(set(rot[x]).intersection(rot[y])) != 2:
        return None
    least = invariant(x, rot[x].index(y))
    rivals = []  # the other candidates
    for u in range(n):
        for i, v in enumerate(rot[u]):
            if v < u or deg[u] + deg[v] > least[0] or {u, v} == {x, y}:
                continue
            sig = invariant(u, i)
            if sig <= least and len(set(rot[u]).intersection(rot[v])) == 2:
                if sig < least:
                    return None
                rivals.append((u, v))
    orientations = (rot, tuple(r[::-1] for r in rot))
    best = None
    ties: list[list[int]] = []  # the label orders of the roots emitting best
    for i, (u, v) in enumerate([(x, y)] + rivals):
        for m, s, t in roots(u, v):
            found = _bfs_code(n, orientations[m], s, t, best)
            if found is not None:
                if found[0] is not best:
                    if i:
                        return None  # a rival root emits a smaller code
                    best, ties = found[0], []
                ties.append(found[1])
    return bytes(best), [_label_map(ties[0], t) for t in ties]


def _children(n: int, rot: Rotation, slack: int,
              group: Group) -> Iterator[tuple[Rotation, Group]]:
    """(child, its group) for the vertex splits of `rot` with defect at most
    `slack` and a canonical new edge, one per orbit of `group`, the
    automorphisms of `rot`: the first split of an orbit is tested, and its
    images under `group` are marked done.  A split is the vertex w and the
    pair r[a], r[b], the apexes of the new edge.

    With the defect delta(T) = sum of dist(deg v, [4, 6]), delta(child) is
    read off the parent: splitting w (degree d) at rotation positions
    a < b gives w degree b - a + 2 and the new vertex d - b + a + 2, r[a]
    and r[b] gain one each, and no other degree changes.

    The new edge has degree sum d + 4.  An edge yz with y, z != w and z not
    adjacent to w keeps the rotation at z and its common neighbours with y,
    so it stays contractible exactly when it was, and its degree sum grows
    by one only when y is r[a] or r[b].  If such an edge would have sum
    below d + 4 in the child, the split is refused before it is made,
    whatever the slack (`_walk` proves the bound it passes).
    """
    dist = [max(4 - d, 0, d - 6) for d in range(n + 2)]
    deg = [len(r) for r in rot]
    delta = sum(dist[d] for d in deg)
    nbrs = [set(r) for r in rot]
    sums = sorted((deg[y] + deg[z], y, z) for y in range(n) for z in rot[y]
                  if y < z and len(nbrs[y] & nbrs[z]) == 2)
    done: set[tuple[int, int, int]] = set()
    for w in range(n):
        r, d, near = rot[w], deg[w], nbrs[w]
        must: set[int] | None = set()  # what r[a], r[b] must include
        for s, y, z in sums:
            if s >= d + 4:
                break
            if w in (y, z) or (y in near and z in near):
                continue
            if s < d + 3 or (y not in near and z not in near):
                must = None
                break
            must.add(y if y in near else z)
        if must is None or len(must) > 2:
            continue
        base = delta - dist[d]
        # the change in delta as a rotation neighbour gains one
        gain = [dist[deg[x] + 1] - dist[deg[x]] for x in r]
        for a in range(d):
            for b in range(a + 1, d):
                if (base + gain[a] + gain[b] + dist[b - a + 2]
                        + dist[d - b + a + 2] > slack
                        or not must.issubset((r[a], r[b]))):
                    continue
                p, q = r[a], r[b]
                if (w, p, q) in done:
                    continue
                for g in group:  # the orbit, each pair read both ways
                    done.update(((g[w], g[p], g[q]), (g[w], g[q], g[p])))
                child = _split_vertex(n, rot, w, a, b)
                found = _canonical_key(n + 1, child, w, n)
                if found is not None:
                    yield child, found[1]


def _walk(v_max: int) -> Iterator[tuple[int, list[Rotation]]]:
    """Yield (v, the classes on v vertices with all degrees in {4, 5, 6})
    for v = 4..v_max, grown depth-first from K4 by `_children`, which
    makes a child on v' vertices only when delta(child) <= 2 (v_max - v').

    Lemma: in a simple triangulation on v >= 5 vertices, contracting a
    contractible edge xy of least degree sum s = d_x + d_y raises delta by
    at most 2.  With f(d) = dist(d, [4, 6]), the merged vertex has degree
    s - 4 and the two apexes lose one each, so the rise is M + A, with
    M = f(s - 4) - f(d_x) - f(d_y) and A adding f(d - 1) - f(d) over the
    apexes, each term at most 1 and positive only for degree <= 4.  If
    s <= 10, f(s - 4) <= (4 - d_x)+ + (4 - d_y)+; if min(d_x, d_y) is 3 or
    4, s - 4 is the other degree or one less: either way M <= 0, so the
    rise is at most A <= 2.  Otherwise d_x, d_y >= 5 and
    M = s - 10 - (d_x - 6)+ - (d_y - 6)+ <= 2, while an apex a of degree
    <= 4 would make ax or ay contractible, of degree sum < s: a degree-3
    apex has a triangle as link, and with link x y p q, ax stays
    contractible unless xp is an edge, ay unless yq is, and both chords
    with a would form K5.  So A <= 0.

    Each class T on v <= v_max vertices comes once.  Its canonical edges
    form one orbit, so T is accepted only from one parent class, T with a
    canonical edge contracted, and from one split of it (McKay's argument):
    if splits s1, s2 of P give children C1, C2 with canonical new edges
    e1, e2 and equal keys, an isomorphism C1 -> C2 (mirror allowed),
    composed with an automorphism of C2, maps e1 onto e2 and so their
    apexes onto theirs.  It descends to the contractions, P both times: an
    automorphism of P that maps s1 (merged vertex, apexes) onto s2, so
    `_children` tests one of them.  All splits of one orbit give one class,
    their new edges canonical or not together.
    That split is made: a canonical edge has the least degree sum (the
    invariant of `_canonical_key` leads with it), so by the lemma the
    contraction path of T meets delta <= 2 (v - v') <= 2 (v_max - v') on
    v' vertices; by induction each parent on it is in the walk and its
    split to the next passes the defect filter.
    """
    levels: list[list[Rotation]] = [[] for _ in range(v_max + 1)]

    def grow(n: int, rot: Rotation, group: Group) -> None:
        if all(4 <= len(r) <= 6 for r in rot):
            levels[n].append(rot)
        if n < v_max:
            for child, child_group in _children(n, rot, 2 * (v_max - n - 1), group):
                grow(n + 1, child, child_group)

    grow(4, _K4_ROT, _K4_GROUP)
    for v in range(4, v_max + 1):
        yield v, levels[v]


def _dualize(n: int, rot: Rotation) -> Rotation:
    """The dual's rotation system: one cubic vertex per triangle face, its
    neighbours the faces across its darts in walk order (`_dual`)."""
    return tuple(tuple(f for _, f in darts) for darts in _dual(_trace_faces(n, rot)))


def enumerate_catalogues(sizes: Iterable[int],
                         bound: int | None = None) -> dict[int, Catalogue]:
    """The catalogue of every size in `sizes`, all from one walk.  Each dual
    is a fullerene: 3-connected, its faces simple and sized as the leaf's degrees."""
    wanted = sorted(set(sizes))
    for n in wanted:
        if n % 2 != 0:
            raise OddVertexCount(f"cubic graphs have even order, got {n}")
        limit = configured_bound() if bound is None else bound
        if not 8 <= n <= limit:
            raise BoundExceeded(f"n = {n} outside the enumeration range 8..{limit}"
                                " (FULLEX_NMAX sets the upper end)")
    out: dict[int, Catalogue] = {}
    for v, leaves in _walk(wanted[-1] // 2 + 2) if wanted else ():
        n = 2 * v - 4  # a cubic dual has 2v - 4 vertices
        if n in wanted:
            out[n] = _catalogue_from(n, (_dualize(v, rot) for rot in leaves))
    return out


def enumerate_fullerenes(n: int, bound: int | None = None) -> Catalogue:
    """Complete isomorph-free catalogue of (4,5,6)-fullerenes on n vertices."""
    return enumerate_catalogues([n], bound)[n]

