"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: matchings
are found by exhaustive search over edge subsets and isomorphism by plain
backtracking, so they can certify the production implementations.
"""

from __future__ import annotations

import itertools
import random

import pytest

from fullex import graphs as G


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


@pytest.fixture(scope="session")
def cube():
    return G.cube_graph()


@pytest.fixture(scope="session")
def dodecahedron():
    return G.dodecahedron_graph()


@pytest.fixture(scope="session")
def k4():
    return G.k4_graph()
