"""Plane cubic graphs given by rotation systems.

A graph is stored as the cyclic neighbor order around every vertex
(clockwise by convention).  Faces are traced with the successor rule
``next(u, v) = (v, neighbor after u in rot[v])``; a rotation system is
accepted only if it is connected and its face count satisfies Euler's
formula for the sphere.  Euler's formula alone does not force
connectivity: a plane and a toroidal component together also give
n - m + f = 2.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]


class FullexError(ValueError):
    """Base of every error bad input or arguments raise; the CLI exits 2."""


class GraphError(FullexError):
    """Base for rotation-system construction and validation failures."""


class NotCubic(GraphError):
    pass


class NotSymmetric(GraphError):
    pass


class SelfLoopOrMultiEdge(GraphError):
    pass


class NotSpherical(GraphError):
    """The rotation system is disconnected or its Euler characteristic is not 2."""


class BadFaceSize(GraphError):
    """A face is not a quadrilateral, pentagon or hexagon."""

    def __init__(self, boundary: tuple[int, ...], size: int):
        self.boundary = boundary
        self.size = size
        super().__init__(f"face {boundary} has size {size}, expected 4, 5 or 6")


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Face(NamedTuple):
    """Facial walk as the cyclic vertex sequence of its boundary."""

    boundary: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.boundary)

    def directed_edges(self) -> list[tuple[int, int]]:
        b = self.boundary
        return [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]


class FaceInventory(NamedTuple):
    faces: tuple[Face, ...]
    p4: int
    p5: int
    p6: int

    @property
    def count(self) -> int:
        return len(self.faces)


class EdgeCut(NamedTuple):
    """Minimal edge cut, given by its edges.  It is trivial when a side is
    one vertex, i.e. when it is the three edges at a vertex; a nontrivial
    cut of <= 3 edges has a cycle on both sides (`has_cyclic_cut_leq3`)."""

    edges: frozenset[Edge]

    @property
    def trivial(self) -> bool:
        first, *rest = self.edges
        return len(self.edges) == 3 and bool(set(first).intersection(*rest))


class PlaneCubicGraph:
    """Immutable cubic plane graph; canonical sweep and short-cycle edge sets cached."""

    __slots__ = ("n", "rot", "adj", "_faces", "_sweep", "_cycles")

    def __init__(self, n: int, rot: tuple[tuple[int, int, int], ...],
                 faces: tuple[Face, ...]):
        self.n = n
        self.rot = rot
        self.adj = tuple(frozenset(nbrs) for nbrs in rot)
        self._faces = faces
        self._sweep: tuple[bytes, bool, Sequence[int]] | None = None
        self._cycles: frozenset[frozenset[Edge]] | None = None

    @property
    def m(self) -> int:
        return 3 * self.n // 2

    def adj_dict(self) -> dict[int, frozenset[int]]:
        return {v: self.adj[v] for v in range(self.n)}

    def __repr__(self) -> str:
        return f"PlaneCubicGraph(n={self.n}, m={self.m}, f={len(self._faces)})"


def _trace_faces(n: int, rot: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Orbit decomposition of the directed edges under the successor rule."""
    succ_at = [{nbrs[i]: nbrs[(i + 1) % len(nbrs)] for i in range(len(nbrs))}
               for nbrs in rot]
    seen: set[tuple[int, int]] = set()
    faces = []
    for v in range(n):
        for w in rot[v]:
            if (v, w) in seen:
                continue
            walk = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                walk.append(a)
                a, b = b, succ_at[b][a]
            faces.append(tuple(walk))
    return faces


def _dual(faces: Sequence[Sequence[int]]) -> list[list[tuple[Edge, int]]]:
    """The plane dual: for each face in walk order, the pair (edge, face
    across) for each of its darts.  A bridge is a loop, listed twice at its
    face; two faces sharing two edges are joined by a parallel pair."""
    face_of = {(f[i - 1], f[i]): j for j, f in enumerate(faces) for i in range(len(f))}
    return [[(norm_edge(f[i - 1], f[i]), face_of[(f[i], f[i - 1])]) for i in range(len(f))]
            for f in faces]


def from_rotation(n: int, rot: Sequence[Sequence[int]]) -> PlaneCubicGraph:
    """Build and validate a plane cubic graph from its rotation system.

    Raises:
        NotCubic: some vertex does not list exactly 3 neighbors.
        SelfLoopOrMultiEdge: a neighbor repeats or equals the vertex.
        NotSymmetric: adjacency is not mutual.
        NotSpherical: the face count violates Euler's formula n - m + f = 2,
            or the rotation system is not connected.
    """
    if n < 4 or n % 2 != 0:
        raise NotCubic(f"vertex count {n} must be even and at least 4")
    if len(rot) != n:
        raise NotCubic(f"expected {n} rotation entries, got {len(rot)}")
    fixed: list[tuple[int, int, int]] = []
    for v, nbrs in enumerate(rot):
        t = tuple(int(x) for x in nbrs)
        if len(t) != 3:
            raise NotCubic(f"vertex {v} has {len(t)} neighbors")
        if v in t or len(set(t)) != 3:
            raise SelfLoopOrMultiEdge(f"vertex {v} has neighbors {t}")
        if any(w < 0 or w >= n for w in t):
            raise NotSymmetric(f"vertex {v} lists an unknown vertex in {t}")
        fixed.append(t)  # type: ignore[arg-type]
    for v, nbrs in enumerate(fixed):
        for w in nbrs:
            if v not in fixed[w]:
                raise NotSymmetric(f"edge {v}->{w} has no reverse")
    walks = _trace_faces(n, fixed)
    m = 3 * n // 2
    if n - m + len(walks) != 2:
        raise NotSpherical(
            f"n - m + f = {n} - {m} + {len(walks)} != 2; not a sphere embedding")
    if len(components(dict(enumerate(fixed)))) != 1:
        raise NotSpherical("rotation system is not connected")
    return PlaneCubicGraph(n, tuple(fixed), tuple(Face(w) for w in walks))


def faces(g: PlaneCubicGraph) -> FaceInventory:
    fs = g._faces
    hist = {4: 0, 5: 0, 6: 0}
    for f in fs:
        if f.size in hist:
            hist[f.size] += 1
    return FaceInventory(fs, hist[4], hist[5], hist[6])


def validate_fullerene(g: PlaneCubicGraph) -> FaceInventory:
    """Check that every face is a quadrilateral, pentagon or hexagon.

    Face boundaries must be simple cycles; a walk that repeats a vertex is
    not a polygon and is rejected with the same error.
    """
    for f in g._faces:
        if f.size not in (4, 5, 6) or len(set(f.boundary)) != f.size:
            raise BadFaceSize(f.boundary, f.size)
    return faces(g)


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _roots(rot: Sequence[Sequence[int]]) -> tuple[tuple, Iterator[tuple[int, int, int]]]:
    """Both orientations of rot, and the sweep's roots (orientation, tail,
    head) in dart order: plain, then mirrored, each by vertex and position."""
    plain = tuple(tuple(r) for r in rot)
    orient = (plain, tuple(r[::-1] for r in plain))
    return orient, ((m, u, v) for m, rr in enumerate(orient) for u, r in enumerate(rr) for v in r)


def _code_sweep(n: int, rot: Sequence[Sequence[int]]) -> tuple[bytes, bool, list[int]]:
    """(canonical code, whether the embedding is chiral, its labelling)
    from one sweep; the labelling is the label order of the first root
    that emits the least code.

    A breadth-first relabeling is generated from every rooted directed edge
    in both orientations and the lexicographically smallest neighbor
    listing wins.  Codes agree iff the embeddings are isomorphic up to
    orientation, which for 3-connected planar graphs is graph isomorphism.
    The plain orientation goes first, with least code P; a mirrored root
    yields a code only when it is at most the current best, so the mirrored
    least code equals P (an orientation-reversing automorphism exists) iff
    some mirrored root ties P and none beats it.

    Roots are darts, numbered in `_roots` order.  When a root ties the best
    code, the `_label_map` phi of the two label orders is an automorphism,
    and a dart and its image under phi emit the same code, so the later of
    the two gets a skip mark and marked roots are skipped: phi carries the
    darts at x onto those at phi(x), and the later block is marked whole,
    unless phi fixes x and turns its k darts by j, when each lies in the
    orbit of one of the first gcd(j, k).  The marks need no closure: a
    marked dart has an earlier one in its orbit, so, by descent, every
    orbit's first dart is unmarked and swept.  The least code is unchanged,
    and so are the chirality and the labelling: the first root to emit the
    least code is never marked, and a skipped mirrored root has a swept
    mirrored root in its orbit, or a plain one, and the latter takes an
    orientation reversal, found only from a mirrored root that tied.
    """
    orient, roots = _roots(rot)
    offset = [0, *accumulate(map(len, orient[0]))]  # dart (u, i) of orientation m
    half = offset[n]                                 # is m * half + offset[u] + i
    skip = bytearray(2 * half)
    best: list[int] | None = None
    best_m, best_order = 0, []
    tie = beaten = False
    for dart, (m, u, v) in enumerate(roots):
        if skip[dart]:
            continue
        found = _bfs_code(n, orient[m], u, v, best)
        if found is None:
            continue
        if found[0] is not best:
            best, best_order = found
            beaten, best_m = bool(m), m
            continue
        tie = tie or bool(m)
        phi = _label_map(best_order, found[1])
        flip = m ^ best_m
        for s in range(m, 2):  # once mirrored, plain darts are all swept
            for x, y in enumerate(phi):
                a, b = s * half + offset[x], (s ^ flip) * half + offset[y]
                start, end = max(a, b), max(a, b) + offset[x + 1] - offset[x]
                if a == b:  # x fixed, its darts turned by j
                    r = orient[s][x]
                    start += gcd(r.index(phi[r[0]]), len(r))
                skip[start:end] = b"\1" * (end - start)
    assert best is not None
    return bytes(best), beaten or not tie, best_order


def _label_map(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """phi with phi[a[i]] = b[i].  If a and b are the label orders of two
    roots, of one graph or of two, that emit one code, phi is an embedding
    isomorphism: equal labels list equal rotations, each in its root's
    orientation, so phi reverses orientation iff the two orientations differ."""
    pos = sorted(range(len(a)), key=a.__getitem__)
    return tuple(map(b.__getitem__, pos))


def _bfs_code(n: int, rot: Sequence[tuple[int, ...]], root: int, first: int,
              best: list[int] | None) -> tuple[list[int], list[int]] | None:
    """(BFS code from one rooted directed edge, the vertices in label
    order); None once the code exceeds `best`.

    While the code ties `best` it is not built: the first smaller entry
    copies `best[:pos]` and appends from there, and a code equal to `best`
    is returned as `best` itself, so callers tell a tie by identity.
    """
    label = [-1] * n
    entry = [-1] * n
    label[root], label[first] = 0, 1
    entry[root], entry[first] = first, root
    order = [root, first]
    code = None if best is not None else []
    pos = 0
    next_label = 2
    idx = 0
    while idx < len(order):
        v = order[idx]
        idx += 1
        r = rot[v]
        k = len(r)
        start = r.index(entry[v])
        if code is not None:
            code.append(k)
        elif k != best[pos]:
            if k > best[pos]:
                return None
            code = best[:pos] + [k]  # strictly smaller; stop comparing
        pos += 1
        for w in r[start:] + r[:start]:
            lw = label[w]
            if lw < 0:
                lw = next_label
                label[w] = lw
                entry[w] = v
                order.append(w)
                next_label += 1
            if code is not None:
                code.append(lw)
            elif lw != best[pos]:
                if lw > best[pos]:
                    return None
                code = best[:pos] + [lw]
            pos += 1
    return (best if code is None else code), order


def _swept(g: PlaneCubicGraph) -> tuple[bytes, bool, Sequence[int]]:
    """The `_code_sweep` of g, made once per graph."""
    if g._sweep is None:
        g._sweep = _code_sweep(g.n, g.rot)
    return g._sweep


def canonical_code(g: PlaneCubicGraph) -> bytes:
    """Canonical code identifying mirror images (cached per graph)."""
    return _swept(g)[0]


def from_code(code: bytes) -> PlaneCubicGraph:
    """The graph a rotation code lists: per vertex, in label order, its
    degree and then its neighbours in rotation order."""
    rot, i = [], 0
    while i < len(code):
        k = code[i]
        rot.append(tuple(code[i + 1:i + 1 + k]))
        i += 1 + k
    return from_rotation(len(rot), rot)


def embedding_map(g1: PlaneCubicGraph, g2: PlaneCubicGraph) -> dict[int, int] | None:
    """A vertex map carrying the embedding of g1 onto g2 (mirror allowed),
    or None, with only g2 swept: codes agree iff one exists, so g1's roots
    emit codes against g2's in sweep order; one below it, or none tying it,
    means None, and the first tie is the root g1's own sweep labels by, so
    matching its labels with g2's labelling is the map (`_label_map`)."""
    if g1.n != g2.n:
        return None
    code2, _, order2 = _swept(g2)
    target = list(code2)
    orient, roots = _roots(g1.rot)
    for m, u, v in roots:
        found = _bfs_code(g1.n, orient[m], u, v, target)
        if found is not None:
            return dict(zip(found[1], order2)) if found[0] is target else None
    return None


def is_chiral(g: PlaneCubicGraph) -> bool:
    """True if the embedding admits no orientation-reversing automorphism;
    read off the sweep that `canonical_code` makes (and caches)."""
    return _swept(g)[1]


# ---------------------------------------------------------------------------
# Connectivity, girth, cycles, cuts
# ---------------------------------------------------------------------------

def components(adj: Mapping[int, Iterable[int]]) -> list[set[int]]:
    """Vertex sets of the components of adj, in order of their smallest
    vertex, by a depth-first search from each."""
    todo = set(adj)
    comps = []
    while todo:
        start = min(todo)
        comp = {start}
        stack = [start]
        todo.discard(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in todo:
                    todo.discard(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _cycles_up_to(adj: Sequence[Sequence[tuple[Edge, int]]], k: int) -> set[frozenset[Edge]]:
    """Edge sets of the cycles of at most k edges of a multigraph, given by
    the (edge, other end) pairs at each node, each found by a depth-first
    search from its least node that visits only greater nodes and no node
    or edge twice.  A path edge has both ends on the path, so only an edge
    back to the start can repeat one."""
    found: set[frozenset[Edge]] = set()

    def extend(s: int, v: int, path: list[Edge], on_path: set[int]) -> None:
        for e, t in adj[v]:
            if t == s:
                if e not in path:
                    found.add(frozenset(path + [e]))
            elif t > s and t not in on_path and len(path) + 1 < k:
                path.append(e)
                on_path.add(t)
                extend(s, t, path, on_path)
                path.pop()
                on_path.discard(t)

    for s in range(len(adj)):
        extend(s, s, [], {s})
    return found


def _short_cycles(g: PlaneCubicGraph) -> frozenset[frozenset[Edge]]:
    """Edge sets of the simple cycles of length 3 to 5, searched once per
    graph: g has no loops or parallel edges and no edge is reused, so no 1-
    or 2-cycle comes out.  In a simple graph a simple cycle is fixed by its
    edge set, so two are equal exactly when their edge sets are."""
    if g._cycles is None:
        g._cycles = frozenset(_cycles_up_to(
            [[(norm_edge(v, w), w) for w in g.rot[v]] for v in range(g.n)], 5))
    return g._cycles


def girth(g: PlaneCubicGraph) -> int:
    """Length of a shortest cycle, the least size in `_short_cycles`, which
    is never empty.  Euler's formula with 2m = 3n gives the sum over faces
    of (6 - |f|) = 6f - 2m = 12, so some facial walk has length <= 5.  No
    facial walk turns straight back (that needs a vertex of degree 1), so
    its first repeated vertex closes a cycle no longer than the walk."""
    return min(map(len, _short_cycles(g)))


def short_cycles_facial(g: PlaneCubicGraph) -> bool:
    """True iff every 4- and 5-cycle is a face, compared as edge sets.  A
    facial walk uses each dart once, so a walk of length 4 or 5 with the
    edge set of a simple 4- or 5-cycle C walks C once, and is C, or has
    length 5 on the edges of a 4-cycle, which cannot be: a closed walk on a
    4-cycle has even length."""
    facial = {frozenset(norm_edge(*d) for d in f.directed_edges())
              for f in g._faces if f.size in (4, 5)}
    return all(c in facial for c in _short_cycles(g) if len(c) > 3)


def edge_cuts_up_to(g: PlaneCubicGraph, k: int) -> list[EdgeCut]:
    """All minimal edge cuts of size <= k (k <= 4), as short cycles of the dual.

    The dual (`_dual`) has one node per face and one edge per edge of g,
    joining the faces of its two darts.  In a connected plane graph an edge
    set F is a minimal cut (removing it leaves exactly two components, and
    every edge of F joins them) iff its dual edges form a cycle (Whitney).
    A dual cycle is a closed curve crossing each edge of F once, so by the
    Jordan curve theorem F is a cut.  If F is a minimal cut with sides X and
    Y, each facial walk is closed and so crosses between X and Y an even
    number of times: every face meets the dual of F an even number of times,
    so that dual contains a cycle, whose edges form a cut inside F, hence
    all of F.  The cut a dual cycle gives contains a minimal cut, whose dual
    is a cycle inside the first one, hence equal to it: that cut is minimal.
    The dual is edge for edge, so the dual cycles of length <= k are exactly
    the minimal cuts of size <= k, and `_cycles_up_to` finds them.
    """
    if k > 4:
        raise ValueError("edge cut enumeration is capped at k = 4")
    if k < 1:
        return []
    dual = _dual([f.boundary for f in g._faces])
    return sorted(map(EdgeCut, _cycles_up_to(dual, k)), key=lambda c: sorted(c.edges))


def connectivity(cuts: list[EdgeCut]) -> int:
    """Vertex connectivity: the least size in ``cuts = edge_cuts_up_to(g, 3)``.

    The three edges at a vertex form a cut, which contains a minimal cut,
    so the list is not empty and its least size is the edge connectivity
    lambda <= 3.  The vertex connectivity kappa (3 = n - 1 for K4) equals
    lambda in a cubic graph.  Whitney's inequality gives kappa <= lambda.
    Conversely let kappa <= 2, S a least vertex cut, H1 a component of
    G - S and H2 the rest.  Each v in S has a neighbour in H1 and one in
    H2, or S - v would be a cut, so exactly one of its three edges goes to
    H1 or exactly one goes to H2; both hold when the two vertices of S are
    adjacent.  Remove that edge for each v in S, the one to H1 when both
    hold.  A vertex of S that keeps an edge to H1 then keeps none to H2 and
    has no neighbour in S, so the kappa removed edges separate H1 from H2:
    lambda <= kappa.
    """
    return min(len(c.edges) for c in cuts)


def has_cyclic_cut_leq3(cuts: list[EdgeCut]) -> bool:
    """True iff <= 3 edges can be removed from g leaving two components with
    cycles: iff ``cuts = edge_cuts_up_to(g, 3)`` holds a nontrivial cut.

    It suffices to look at minimal cuts.  Let F be a set of <= 3 edges and
    C1, C2 cyclic components of G - F; then d(C1) lies in F.  The component
    D of G - d(C1) containing C2 gives a minimal cut d(D) within d(C1), and
    both of its sides contain a cycle.  The converse is immediate.

    A side S of a minimal c-edge cut is connected and spans (3|S| - c)/2
    edges, so it holds a cycle iff that is at least |S|, i.e. iff
    |S| >= c.  With c <= 3 this fails only for |S| = 1 and c = 3: in a
    simple cubic graph a one-vertex side has c = 3, and a two-vertex side,
    being connected, is one edge with c = 4.  That is a cut whose three
    edges share an end, a trivial one, so a minimal cut of <= 3 edges has
    a cycle on both sides iff it is nontrivial.
    """
    return any(not c.trivial for c in cuts)
