"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: matchings
are found by exhaustive search over edge subsets, isomorphism by plain
backtracking, and cuts, connectivity, girth and short cycles by scanning
every small edge or vertex subset and by breadth-first search, so they can
certify the production implementations.  `backtracking_perfect_matchings` is the
set-based perfect-matching search the library used before its bitmask
kernel, kept as the oracle for that kernel's output order.
`per_vertex_gallai_edmonds_d` finds the vertices some maximum matching
misses by one maximum matching of G - v per vertex v, and
`combination_anti_kekule_sets` scans every edge combination of one size,
the library's routes before it read both off one search.  The naive
enumerator searches rotation systems directly, pruned only by the face
sizes; it shares with the enumerator no more than the final sort into
canonical labelling.  The triangulation levels are every vertex split of
the level below, deduplicated by `tri_key` (which
`test_tri_key_separates_exactly_as_rotation_code` checks against
`rotation_code`) with no pruning, and so share with the enumerator's
canonical augmentation only the split itself.  `plain_code_sweep` is the
canonical sweep before it skipped roots by automorphisms.  `is_chiral`
compares the least codes of the two orientations, each from its own sweep.
`aligned_embedding_map` finds an embedding isomorphism by walking two
rotation systems in step, without BFS codes, and `embedding_automorphisms`
finds every automorphism of a triangulation the same way from each dart.
`is_anti_kekule_set` checks the definition on the graph minus the edges,
and `min_anti_kekule_sets`, `nonextendable_pairs`, `rotation_code` and the
certificate predicates are thin readings of library results that only the
tests need, as are the fixed graphs (cube, dodecahedron, K4).  `sporadic`
reads the sporadic filter off `catalogue_digests` output, as the report
does.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from typing import Collection, Iterable, Mapping

import pytest

from fullex import antikekule as AK
from fullex import enumerator as EN
from fullex import extendability as E
from fullex import graphs as G
from fullex import harness as H
from fullex import matching as M


@functools.cache
def catalogue(n: int, naive: bool = False) -> EN.Catalogue:
    """The fast (or naive) catalogue on n vertices, built once per test run;
    the fast ones up to n = 20 all come from one walk."""
    return naive_enumerate(n) if naive else catalogues(max(n, 20))[n]


@functools.cache
def catalogues(nmax: int) -> dict[int, EN.Catalogue]:
    """Every fast catalogue on 8..nmax vertices, from one walk."""
    return EN.enumerate_catalogues(range(8, nmax + 1, 2))


@functools.cache
def triangulations(v: int) -> tuple[EN.Rotation, ...]:
    """All simple sphere triangulations on v >= 4 vertices, one per class."""
    if v == 4:
        return (((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)),)  # K4
    level: dict[bytes, EN.Rotation] = {}
    for child in split_children(v):
        level.setdefault(tri_key(v, child), child)
    return tuple(level.values())


@functools.cache
def sporadic(n: int) -> tuple[tuple[G.PlaneCubicGraph, dict], ...]:
    """The fullerenes on n vertices that pass the report's sporadic filter,
    in catalogue (canonical code) order, each with its digest."""
    cat = catalogue(n)
    digests = H.catalogue_digests(cat)
    pairs = ((g, digests[G.canonical_code(g).hex()]) for g in cat.graphs)
    return tuple((g, d) for g, d in pairs if H._is_sporadic(d))


def witness_pair(digest: dict) -> tuple[G.Edge, ...]:
    """The digest's non-2-extendable witness as a pair of edge tuples."""
    return tuple(tuple(e) for e in digest["certificate"]["witness"])


def rotation_code(n: int, rot) -> bytes:
    """Canonical byte code of an embedded graph (`_code_sweep`)."""
    return G._code_sweep(n, rot)[0]


def plain_code_sweep(n: int, rot) -> tuple[bytes, bool, list[int]]:
    """`_code_sweep` without its automorphism pruning: a BFS code from
    every dart in both orientations, plain first, the mirrored ones only
    compared against the best so far, and the label order of the first
    root that emits the least code."""
    plain = tuple(tuple(r) for r in rot)
    best: list[int] | None = None
    tie = beaten = False
    for mirrored, rr in enumerate((plain, tuple(r[::-1] for r in plain))):
        for u in range(n):
            for v in rr[u]:
                found = G._bfs_code(n, rr, u, v, best)
                if found is None:
                    continue
                if found[0] == best:
                    tie = tie or bool(mirrored)
                else:
                    beaten, best, order = bool(mirrored), found[0], found[1]
    assert best is not None
    return bytes(best), beaten or not tie, order


def canonical_codes(cat: EN.Catalogue) -> list[bytes]:
    return [G.canonical_code(g) for g in cat.graphs]


def tri_key(n: int, rot: EN.Rotation) -> bytes:
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
            cand = G._bfs_code(n, rr, u, v, best)
            if cand is not None:
                best = cand[0]
    assert best is not None
    return bytes(best)


def split_children(v: int):
    """Every vertex split of every triangulation on v - 1 vertices."""
    n = v - 1
    for rot in triangulations(n):
        for w in range(n):
            d = len(rot[w])
            for a in range(d):
                for b in range(a + 1, d):
                    yield EN._split_vertex(n, rot, w, a, b)


def embedding_automorphisms(n: int, rot) -> set[tuple[int, ...]]:
    """Every vertex map carrying `rot` onto itself or onto its mirror, as
    phi with phi[u] the image of u.  From each dart a -> b of both
    orientations, the map is grown by reading the rotations in step from
    0 -> rot[0][0], and kept when it is a bijection that carries every
    rotation onto a cyclic shift of the image's.  A map is fixed by where it
    sends one dart, so every automorphism and reflection is found."""
    maps = set()
    for rr in (rot, tuple(r[::-1] for r in rot)):
        for a in range(n):
            for b in rr[a]:
                phi, todo = {0: a}, [(0, rot[0][0], b)]
                while todo:
                    u, x, y = todo.pop()  # the dart u -> x goes to phi[u] -> y
                    ru, rv = rot[u], rr[phi[u]]
                    if len(ru) != len(rv) or y not in rv:
                        continue  # no map; phi stays partial or fails below
                    i, j = ru.index(x), rv.index(y)
                    for k in range(len(ru)):
                        s = ru[(i + k) % len(ru)]
                        if s not in phi:
                            phi[s] = rv[(j + k) % len(rv)]
                            todo.append((s, u, phi[u]))
                if len(phi) != n or len(set(phi.values())) != n:
                    continue
                images = [(tuple(phi[x] for x in rot[u]), rr[phi[u]]) for u in range(n)]
                if all(any(m == t[k:] + t[:k] for k in range(len(t))) for m, t in images):
                    maps.add(tuple(phi[u] for u in range(n)))
    return maps


def random_simple_graph(rng: random.Random, max_n: int = 12):
    n = rng.randint(1, max_n)
    p = rng.random() * 0.7 + 0.1
    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def brute_max_matching_size(adj) -> int:
    edges = sorted({tuple(sorted((v, w))) for v, ns in adj.items() for w in ns})
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        if i >= len(edges) or count + (len(adj) - len(used)) // 2 <= best:
            return
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                rec(j + 1, used | {u, v}, count + 1)

    rec(0, set(), 0)
    return best


def brute_perfect_matchings(adj) -> set[tuple]:
    """All perfect matchings by scanning subsets of the edge list."""
    verts = set(adj)
    if len(verts) % 2:
        return set()
    edges = sorted({tuple(sorted((v, w))) for v, ns in adj.items() for w in ns})
    k = len(verts) // 2
    out = set()
    for sub in itertools.combinations(edges, k):
        covered = [v for e in sub for v in e]
        if len(set(covered)) == len(verts):
            out.add(tuple(sorted(sub)))
    return out


def backtracking_perfect_matchings(g):
    """All perfect matchings in lexicographic order, by backtracking over
    Python sets on the smallest uncovered vertex."""
    adj = M.adjacency_of(g)
    if len(adj) > M.COUNT_LIMIT:
        raise M.TooLarge(f"{len(adj)} vertices exceed the enumeration bound")
    if len(adj) % 2 != 0:
        return
    verts = sorted(adj)

    def recurse(free: set[int], chosen: list[G.Edge]):
        if not free:
            yield tuple(chosen)
            return
        v = min(free)
        partners = sorted(w for w in adj[v] if w in free)
        if not partners:
            return
        # dead-end pruning: every free vertex must retain a free neighbor
        for u in free:
            if u != v and not any(w in free and w != v for w in adj[u]):
                if v not in adj[u]:
                    return
        for w in partners:
            free.discard(v)
            free.discard(w)
            chosen.append(G.norm_edge(v, w))
            yield from recurse(free, chosen)
            chosen.pop()
            free.add(v)
            free.add(w)

    yield from recurse(set(verts), [])


def per_vertex_gallai_edmonds_d(adj) -> set[int]:
    """Vertices missed by at least one maximum matching, by definition: v is
    one when G - v has a matching as large as a maximum matching of G."""
    size = len(M.maximum_matching(adj))
    return {v for v in adj
            if len(M.maximum_matching(M.induced(adj, [v]))) == size}


def combination_anti_kekule_sets(index: M.PmIndex, size: int):
    """Anti-Kekule sets of one size in lexicographic order, one edge
    combination at a time: the OR of its masks holds every perfect matching
    and the graph minus it is one component."""
    for combo in itertools.combinations(index.edges, size):
        acc = 0
        for e in combo:
            acc |= index.masks[e]
        if acc == index.full and len(components_without(index.adj, combo)) == 1:
            yield frozenset(combo)


class EdgeNotInGraph(ValueError):
    pass


def without_edges(adj, edges) -> dict[int, frozenset[int]]:
    dead = {G.norm_edge(*e) for e in edges}
    return {v: frozenset(w for w in ns if G.norm_edge(v, w) not in dead)
            for v, ns in adj.items()}


def is_anti_kekule_set(g, edges) -> bool:
    """True iff deleting the edges keeps the graph connected and unmatchable."""
    adj = M.adjacency_of(g)
    dead = [G.norm_edge(*e) for e in edges]
    for u, v in dead:
        if u not in adj or v not in adj[u]:
            raise EdgeNotInGraph(f"edge ({u}, {v}) is not in the graph")
    left = without_edges(adj, dead)
    return M.is_connected(left) and not M.has_perfect_matching(left)


def min_anti_kekule_sets(g, size: int) -> list[frozenset[G.Edge]]:
    """All anti-Kekule sets of exactly the given size, from the library's search."""
    return list(AK.sets_of_size(M.PmIndex(M.adjacency_of(g)), size))


def nonextendable_pairs(g) -> list[E.ExtendabilityReport]:
    """Every size-2 matching with no perfect-matching extension, certified."""
    adj = M.adjacency_of(g)
    index = M.PmIndex(adj, E.ENUMERATION_CAP)
    E.check_preconditions(index, 2)
    return [E.ExtendabilityReport(2, False, w, M.matching_certificate(adj, w))
            for w in E.nonextendable_matchings(index, 2)]


def certificate_valid(cert: M.DeficiencyCertificate) -> bool:
    """S matches into the components of G - S, and each is factor-critical."""
    return cert.matchable and all(cert.factor_critical_flags)


def implies_perfect_matching(cert: M.DeficiencyCertificate) -> bool:
    return len(cert.S) == len(cert.components)


def backtracking_isomorphic(g1: G.PlaneCubicGraph, g2: G.PlaneCubicGraph) -> bool:
    """Abstract-graph isomorphism, ignoring the embeddings entirely."""
    if g1.n != g2.n:
        return False
    n = g1.n
    mapping: dict[int, int] = {}
    used = set()

    def rec(v):
        if v == n:
            return all(mapping[w] in g2.adj[mapping[u]]
                       for u in range(n) for w in g1.adj[u])
        for w in range(n):
            if w in used:
                continue
            ok = True
            for x in g1.adj[v]:
                if x in mapping and mapping[x] not in g2.adj[w]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if rec(v + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return rec(0)


def relabelled_mirror(g: G.PlaneCubicGraph, rng: random.Random) -> G.PlaneCubicGraph:
    """The mirror image of g under a random relabelling."""
    perm = rng.sample(range(g.n), g.n)
    rot = [()] * g.n
    for v in range(g.n):
        rot[perm[v]] = tuple(perm[w] for w in reversed(g.rot[v]))
    return G.from_rotation(g.n, rot)


def relabel_rotation(rot, rng: random.Random, mirror: bool):
    """A rotation system under a random relabelling, mirrored if asked."""
    perm = rng.sample(range(len(rot)), len(rot))
    out = [None] * len(rot)
    for v, nbrs in enumerate(rot):
        r = tuple(perm[w] for w in nbrs)
        out[perm[v]] = r[::-1] if mirror else r
    return tuple(out)


def is_chiral(g: G.PlaneCubicGraph) -> bool:
    """Chirality by definition: the least BFS codes of the plain and the
    mirrored orientation, each swept on its own, differ."""
    def least(rot):
        return min(G._bfs_code(g.n, rot, u, v, None)[0]
                   for u in range(g.n) for v in rot[u])
    return least(g.rot) != least(tuple(r[::-1] for r in g.rot))


def aligned_embedding_map(g1: G.PlaneCubicGraph,
                          g2: G.PlaneCubicGraph) -> dict[int, int] | None:
    """A vertex map carrying the embedding of g1 onto g2 (mirror allowed),
    by walking the two rotation systems in step from the dart 0 -> rot[0][0]
    of g1 and each dart of g2 in sorted order, plain before mirrored; the
    first walk that never contradicts its map gives it."""
    if g1.n != g2.n:
        return None
    for mirror in (False, True):
        rot2 = g2.rot if not mirror else tuple(tuple(reversed(r)) for r in g2.rot)
        for a in range(g2.n):
            for b in rot2[a]:
                mapping = _try_align(g1.rot, rot2, 0, g1.rot[0][0], a, b)
                if mapping is not None:
                    return mapping
    return None


def _try_align(rot1, rot2, r1: int, f1: int, r2: int, f2: int) -> dict[int, int] | None:
    mapping = {r1: r2, f1: f2}
    entry1 = {r1: f1, f1: r1}
    entry2 = {r2: f2, f2: r2}
    order = [r1, f1]
    idx = 0
    while idx < len(order):
        v = order[idx]
        w = mapping[v]
        idx += 1
        s1 = rot1[v].index(entry1[v])
        s2 = rot2[w].index(entry2[w])
        for i in range(3):
            a = rot1[v][(s1 + i) % 3]
            b = rot2[w][(s2 + i) % 3]
            if a in mapping:
                if mapping[a] != b:
                    return None
            else:
                if b in mapping.values():
                    return None
                mapping[a] = b
                entry1[a] = v
                entry2[b] = w
                order.append(a)
    return mapping


def cube_graph() -> G.PlaneCubicGraph:
    """The 3-cube: smallest (4,5,6)-fullerene, all faces quadrilaterals."""
    return G.from_rotation(8, [(1, 4, 3), (0, 2, 5), (1, 3, 6), (0, 7, 2),
                               (0, 5, 7), (1, 6, 4), (2, 7, 5), (3, 4, 6)])


def k4_graph() -> G.PlaneCubicGraph:
    """The tetrahedron; plane cubic but not a fullerene (triangle faces)."""
    return G.from_rotation(4, [(1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)])


def dodecahedron_graph() -> G.PlaneCubicGraph:
    """The dodecahedron: the 20-vertex fullerene with twelve pentagons."""
    return G.from_rotation(20, [
        (1, 5, 4), (0, 2, 6), (1, 3, 7), (2, 4, 8), (0, 9, 3),
        (0, 10, 14), (1, 11, 10), (2, 12, 11), (3, 13, 12), (4, 14, 13),
        (5, 6, 15), (6, 7, 16), (7, 8, 17), (8, 9, 18), (5, 19, 9),
        (10, 16, 19), (11, 17, 15), (12, 18, 16), (13, 19, 17), (14, 15, 18),
    ])


def two_blocks_joined_by_two_edges() -> G.PlaneCubicGraph:
    """Two K4s with one edge removed from each, joined by two edges: the
    join is a 2-edge cut, a 2-cycle of the dual."""
    return G.from_rotation(8, [(2, 4, 3), (2, 3, 5), (0, 3, 1), (0, 1, 2),
                               (0, 6, 7), (1, 7, 6), (4, 5, 7), (4, 6, 5)])


def two_blocks_joined_by_a_bridge() -> G.PlaneCubicGraph:
    """Two K4s with one edge subdivided each, the subdividing vertices
    joined by a bridge: both of its darts lie on one face, a loop of the
    dual."""
    return G.from_rotation(10, [(2, 4, 3), (2, 3, 4), (0, 3, 1), (0, 1, 2),
                                (0, 1, 9), (7, 9, 8), (7, 8, 9), (5, 8, 6),
                                (5, 6, 7), (4, 5, 6)])


Sides = tuple[frozenset[int], frozenset[int]]


def exhaustive_edge_cuts(g: G.PlaneCubicGraph, k: int) -> list[tuple[G.EdgeCut, Sides]]:
    """All minimal edge cuts of size <= k, each with its two vertex sides,
    one components search per edge subset: removing the subset leaves two
    components and every removed edge joins them."""
    adj = g.adj_dict()
    cuts = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(M.edges_of(adj), size):
            blocked = frozenset(combo)
            comps = components_without(adj, blocked)
            if len(comps) != 2:
                continue
            s0 = comps[0]
            if not all((u in s0) != (v in s0) for u, v in combo):
                continue
            cuts.append((G.EdgeCut(blocked), (frozenset(comps[0]), frozenset(comps[1]))))
    cuts.sort(key=lambda cut: sorted(cut[0].edges))
    return cuts


def exhaustive_connectivity(g: G.PlaneCubicGraph) -> int:
    """Vertex connectivity by one components search per vertex and vertex
    pair (cubic, so <= 3)."""
    verts = set(range(g.n))
    adj = g.adj_dict()
    if len(G.components(adj)) > 1:
        return 0
    for k in (1, 2):
        for cut in itertools.combinations(range(g.n), k):
            rest = verts.difference(cut)
            sub = {v: [w for w in adj[v] if w in rest] for v in rest}
            if rest and len(G.components(sub)) > 1:
                return k
    return 3


def bfs_girth(g: G.PlaneCubicGraph) -> int:
    """Length of a shortest cycle by a breadth-first search from every vertex."""
    best = g.n + 1
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        q = deque([s])
        while q:
            x = q.popleft()
            if dist[x] * 2 >= best:
                continue
            for y in g.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def scanned_short_cycles(g: G.PlaneCubicGraph) -> set[frozenset[G.Edge]]:
    """Edge sets of the simple cycles of length 3 to 5, by trying every
    vertex subset of that size in which each vertex has two neighbours, in
    every cyclic order."""
    found = set()
    for k in (3, 4, 5):
        for subset in itertools.combinations(range(g.n), k):
            inside = set(subset)
            if any(len(g.adj[v] & inside) < 2 for v in subset):
                continue
            for rest in itertools.permutations(subset[1:]):
                ring = (subset[0], *rest)
                pairs = list(zip(ring, ring[1:] + ring[:1]))
                if all(b in g.adj[a] for a, b in pairs):
                    found.add(frozenset(G.norm_edge(a, b) for a, b in pairs))
    return found


def components_without(adj: Mapping[int, Iterable[int]],
                       blocked: Collection[G.Edge]) -> list[set[int]]:
    """Vertex sets of the components of adj minus the blocked edges, in
    order of their least vertex, by a breadth-first search from each."""
    comps: list[set[int]] = []
    seen: set[int] = set()
    for s in sorted(adj):
        if s in seen:
            continue
        comp, queue = {s}, deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp and G.norm_edge(x, y) not in blocked:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def has_cycle(comp: Collection[int], adj: Mapping[int, Iterable[int]],
              blocked_edges: frozenset[G.Edge] = frozenset()) -> bool:
    """True iff the connected vertex set spans a cycle (edges >= vertices)."""
    edges = sum(1 for v in comp for w in adj[v]
                if w in comp and G.norm_edge(v, w) not in blocked_edges) // 2
    return edges >= len(comp)


def exhaustive_cyclic_cut_leq3(g: G.PlaneCubicGraph) -> bool:
    """True iff removing some set of <= 3 edges leaves two components with
    cycles, by one components search per edge subset."""
    adj = g.adj_dict()
    for size in range(1, 4):
        for combo in itertools.combinations(M.edges_of(adj), size):
            blocked = frozenset(combo)
            comps = components_without(adj, blocked)
            if sum(1 for c in comps if has_cycle(c, adj, blocked)) >= 2:
                return True
    return False


NAIVE_BOUND = 16


def naive_enumerate(n: int) -> EN.Catalogue:
    """Exhaustive rotation-system search; the enumerator's completeness
    oracle, which assumes nothing about the structure of the result.

    Rotation systems are generated in a breadth-first normal form (labels
    in discovery order, each vertex's rotation read from its discovery
    edge), which enumerates every embedding at least once per rooted
    orientation.  Pruning uses only the face-size definition: a traced
    facial walk may never exceed six edges and must close at 4, 5 or 6.
    A class is found many times (12 rotation systems for the 2 classes at
    n = 12, 56 for the 4 at n = 14); one per canonical code is kept.
    """
    if n % 2 != 0:
        raise EN.OddVertexCount(f"cubic graphs have even order, got {n}")
    if not 4 <= n <= NAIVE_BOUND:
        raise EN.BoundExceeded(f"naive search is bounded at {NAIVE_BOUND}")
    found: dict[bytes, EN.Rotation] = {}  # one rotation system per class
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
                    g = G.from_rotation(n, [tuple(r) for r in rot])  # type: ignore[arg-type]
                    G.validate_fullerene(g)
                except G.GraphError:
                    return
                found.setdefault(G.canonical_code(g), g.rot)
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
    return EN._catalogue_from(n, found.values())


def pytest_configure(config):
    """Keep Hypothesis's storage in pytest's cache directory.

    While collecting property tests, Hypothesis caches the constants it
    reads from local source files in its storage directory, which is
    ./.hypothesis by default, even when the tests keep no example database.
    """
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def cube():
    return cube_graph()


@pytest.fixture(scope="session")
def dodecahedron():
    return dodecahedron_graph()


@pytest.fixture(scope="session")
def k4():
    return k4_graph()
