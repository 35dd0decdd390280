"""Isomorph-free generation of all (4,5,6)-fullerenes up to a vertex bound.

``enumerate_catalogues`` (and ``enumerate_fullerenes`` for one size) works
on the dual side.  The class is the simple sphere triangulations with
every degree in {4, 5, 6}, the duals of (4,5,6)-fullerenes.  One
depth-first walk grows the class, and only the class, from its roots, the
stacks (`_stack`), by vertex splitting up to v_max = nmax/2 + 2 vertices,
and dualizes every node.  A split is made only when the child stays in the
class, from one split per orbit of the parent's automorphisms
(`_children`), and kept only when its new edge is canonical (McKay's
canonical augmentation, `_canonical_key`), so the classes of every size up
to nmax come out of the one walk, each once.  The walk is complete when
every canonical edge of a class other than a stack keeps the class
(`_walk`); the pinned census certifies that through n = CERTIFIED_BOUND,
and larger sizes are refused.

Nothing is cached between calls.  The test suite certifies the catalogues
against the pinned census and an independent rotation-system search.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .graphs import (FullexError, PlaneCubicGraph, _bfs_code, _code_sweep, _dual,
                     _label_map, _trace_faces, faces, from_code)

DEFAULT_BOUND = 24
# the largest size at which the pinned census certifies the walk complete
CERTIFIED_BOUND = 34


class EnumerationError(FullexError):
    pass


class BoundExceeded(EnumerationError):
    pass


class OddVertexCount(EnumerationError):
    pass


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


def _children(n: int, rot: Rotation, group: Group) -> Iterator[tuple[Rotation, Group]]:
    """(child, its group) for the vertex splits of `rot`, a class member,
    that keep the class and whose new edge is canonical, one per orbit of
    `group`, the automorphisms of `rot`: the first split of an orbit is
    tested, and its images under `group` are marked done.  A split is the
    vertex w and the pair r[a], r[b], the apexes of the new edge.  Splitting
    w (degree d) at rotation positions a < b gives w degree b - a + 2 and
    the new vertex d - b + a + 2, r[a] and r[b] gain one each, and no other
    degree changes, so the child is a class member when these four degrees
    end in 4..6.  The first two sum to d + 4 <= 10, so they are at most 6
    when both are at least 4.
    """
    deg = [len(r) for r in rot]
    done: set[tuple[int, int, int]] = set()
    for w in range(n):
        r, d = rot[w], deg[w]
        for a in range(d):
            for b in range(a + 1, d):
                p, q = r[a], r[b]
                if (not 2 <= b - a <= d - 2 or deg[p] == 6 or deg[q] == 6
                        or (w, p, q) in done):
                    continue
                for g in group:  # the orbit, each pair read both ways
                    done.update(((g[w], g[p], g[q]), (g[w], g[q], g[p])))
                child = _split_vertex(n, rot, w, a, b)
                found = _canonical_key(n + 1, child, w, n)
                if found is not None:
                    yield child, found[1]


def _stack(k: int) -> Rotation:
    """The stack S_k: k triangles, vertex 3i + j the j-th of the i-th, with
    consecutive triangles joined as an antiprism, 3i + j adjacent to
    3(i + 1) + j and 3(i + 1) + j - 1 (mod 3 in j).  The end vertices have
    degree 4 and the rest 6; S_2 is the octahedron, and S_(L + 2) is the
    dual of the tube with L layers."""
    steps = ((0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0))
    return tuple(tuple(3 * (i + di) + (j + dj) % 3 for di, dj in steps if 0 <= i + di < k)
                 for i in range(k) for j in range(3))


def _walk(v_max: int) -> Iterator[tuple[int, list[Rotation]]]:
    """Yield (v, the classes on v vertices) for v = 4..v_max, the class
    being the simple sphere triangulations with every degree in {4, 5, 6}:
    the walk grows them depth-first by `_children` from the stacks S_k with
    3k <= v_max, each root with the group `_canonical_key` gives on one of
    its canonical edges.  Levels 4 and 5 are empty.

    Each class T comes at most once.  Its canonical edges form one orbit, so
    T is accepted only from one parent class, T with a canonical edge
    contracted, and from one split of it (McKay's argument): if splits s1,
    s2 of P give children C1, C2 with canonical new edges e1, e2 and equal
    keys, an isomorphism C1 -> C2 (mirror allowed), composed with an
    automorphism of C2, maps e1 onto e2 and so their apexes onto theirs.  It
    descends to the contractions, P both times: an automorphism of P that
    maps s1 (merged vertex, apexes) onto s2, so `_children` tests one of
    them.  All splits of one orbit give one class, their new edges canonical
    or not together.

    An edge xy keeps the class when contracting it leaves every degree in
    4..6: d_x + d_y <= 10 (the merged vertex has degree d_x + d_y - 4) and
    both apexes have degree >= 5 (each loses one).  A stack's canonical
    edges are the edges of its end triangles, its only contractible edges of
    degree sum 8, and contracting one leaves the third vertex of the
    triangle with degree 3.  So a stack is never accepted as a child, only
    walked from as a root.  Every other class T comes once if each of its
    canonical edges keeps the class: then T's parent is a class member, and
    by induction down its contraction path, which ends at a stack, each
    parent on it is in the walk and its split to the next is made.  Were the
    condition false for some T, the walk would miss T.  It holds through
    v = 19 (n = 34): the walk reproduces every row of the pinned census,
    written by an earlier walk that grew every triangulation under a defect
    bound proved complete, and `enumerate_catalogues` refuses larger sizes.
    """
    levels: list[list[Rotation]] = [[] for _ in range(v_max + 1)]

    def grow(n: int, rot: Rotation, group: Group) -> None:
        levels[n].append(rot)
        if n < v_max:
            for child, child_group in _children(n, rot, group):
                grow(n + 1, child, child_group)

    for k in range(2, v_max // 3 + 1):
        rot = _stack(k)
        keys = (_canonical_key(3 * k, rot, x, y) for x, r in enumerate(rot) for y in r)
        grow(3 * k, rot, next(key for key in keys if key is not None)[1])
    for v in range(4, v_max + 1):
        yield v, levels[v]


def _dualize(n: int, rot: Rotation) -> Rotation:
    """The dual's rotation system: one cubic vertex per triangle face, its
    neighbours the faces across its darts in walk order (`_dual`)."""
    return tuple(tuple(f for _, f in darts) for darts in _dual(_trace_faces(n, rot)))


def enumerate_catalogues(sizes: Iterable[int],
                         bound: int | None = None) -> dict[int, Catalogue]:
    """The catalogue of every size in `sizes`, all from one walk.  Each dual
    is a fullerene: 3-connected, its faces simple and sized as its triangulation's degrees.

    Every size must be even and in 8..`bound` (CERTIFIED_BOUND if None),
    and none above CERTIFIED_BOUND; else this raises before the walk."""
    wanted = sorted(set(sizes))
    if wanted and wanted[-1] > CERTIFIED_BOUND:
        raise BoundExceeded(
            f"n = {wanted[-1]} is above {CERTIFIED_BOUND}, the largest size at which"
            " the pinned census certifies the enumeration complete")
    limit = CERTIFIED_BOUND if bound is None else bound
    for n in wanted:
        if n % 2 != 0:
            raise OddVertexCount(f"cubic graphs have even order, got {n}")
        if not 8 <= n <= limit:
            raise BoundExceeded(f"n = {n} outside the enumeration range 8..{limit}")
    out: dict[int, Catalogue] = {}
    for v, leaves in _walk(wanted[-1] // 2 + 2) if wanted else ():
        n = 2 * v - 4  # a cubic dual has 2v - 4 vertices
        if n in wanted:
            out[n] = _catalogue_from(n, (_dualize(v, rot) for rot in leaves))
    return out


def enumerate_fullerenes(n: int, bound: int | None = None) -> Catalogue:
    """Complete isomorph-free catalogue of (4,5,6)-fullerenes on n vertices."""
    return enumerate_catalogues([n], bound)[n]

