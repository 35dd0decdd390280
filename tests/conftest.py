"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: matchings
are found by exhaustive search over edge subsets, isomorphism by plain
backtracking, and cuts, connectivity and girth by scanning every small
edge or vertex subset and by breadth-first search, so they can certify the
production implementations.  The triangulation levels are every vertex
split of the level below, deduplicated by `_tri_key` (which
`test_tri_key_separates_exactly_as_rotation_code` checks against
`rotation_code`) with no pruning.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

import pytest

from fullex import enumerator as EN
from fullex import graphs as G


@functools.cache
def catalogue(n: int, naive: bool = False) -> EN.Catalogue:
    """The fast (or naive) catalogue on n vertices, built once per test run;
    the fast ones up to n = 20 all come from one walk."""
    return EN.naive_enumerate(n) if naive else catalogues(max(n, 20))[n]


@functools.cache
def catalogues(nmax: int) -> dict[int, EN.Catalogue]:
    """Every fast catalogue on 8..nmax vertices, from one walk."""
    return EN.enumerate_catalogues(range(8, nmax + 1, 2), bound=nmax)


@functools.cache
def triangulations(v: int) -> tuple[EN.Rotation, ...]:
    """All simple sphere triangulations on v >= 4 vertices, one per class."""
    if v == 4:
        return (EN._K4_ROT,)
    level: dict[bytes, EN.Rotation] = {}
    for child in split_children(v):
        level.setdefault(EN._tri_key(v, child), child)
    return tuple(level.values())


def split_children(v: int):
    """Every vertex split of every triangulation on v - 1 vertices."""
    n = v - 1
    for rot in triangulations(n):
        for w in range(n):
            d = len(rot[w])
            for a in range(d):
                for b in range(a + 1, d):
                    yield EN._split_vertex(n, rot, w, a, b)


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


def exhaustive_edge_cuts(g: G.PlaneCubicGraph, k: int) -> list[G.EdgeCut]:
    """All minimal edge cuts of size <= k, one components search per edge
    subset: removing the subset leaves two components and every removed
    edge joins them."""
    adj = g.adj_dict()
    cuts = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(g.edge_list, size):
            blocked = frozenset(combo)
            comps = G.components(adj, blocked)
            if len(comps) != 2:
                continue
            s0 = comps[0]
            if not all((u in s0) != (v in s0) for u, v in combo):
                continue
            cuts.append(G.EdgeCut(blocked, (frozenset(comps[0]), frozenset(comps[1]))))
    cuts.sort(key=lambda c: sorted(c.edges))
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


def exhaustive_cyclic_cut_leq3(g: G.PlaneCubicGraph) -> bool:
    """True iff removing some set of <= 3 edges leaves two components with
    cycles, by one components search per edge subset."""
    adj = g.adj_dict()
    for size in range(1, 4):
        for combo in itertools.combinations(g.edge_list, size):
            blocked = frozenset(combo)
            comps = G.components(adj, blocked)
            if sum(1 for c in comps if G.has_cycle(c, adj, blocked)) >= 2:
                return True
    return False


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
    return G.cube_graph()


@pytest.fixture(scope="session")
def dodecahedron():
    return G.dodecahedron_graph()


@pytest.fixture(scope="session")
def k4():
    return G.k4_graph()
