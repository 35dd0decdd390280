"""Anti-Kekule sets: edge deletions that keep the graph connected but
destroy every perfect matching.

The number is found by brute force over edge subsets of size 1, 2, 3, 4 in
lexicographic order.  An edge subset kills all perfect matchings iff it
intersects every one of them, so the perfect matchings are enumerated once
and indexed per edge as bitsets; connectivity is only checked for the rare
subsets that hit every matching.  No structural theorem about the expected
answer enters the search.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from . import matching as mt
from .graphs import Edge, PlaneCubicGraph, components, norm_edge

SEARCH_CAP = 4


class AntiKekuleError(ValueError):
    pass


class EdgeNotInGraph(AntiKekuleError):
    pass


class SearchExhausted(AntiKekuleError):
    """No anti-Kekule set of size <= 4 exists; loud, because for any
    (4,5,6)-fullerene that would falsify the structure theory under test."""


class AntiKekuleResult(NamedTuple):
    number: int
    witness_set: frozenset[Edge]


def is_anti_kekule_set(g: PlaneCubicGraph | mt.Adjacency, edges) -> bool:
    """True iff deleting the edges keeps the graph connected and unmatchable."""
    adj = mt.adjacency_of(g)
    dead = [norm_edge(*e) for e in edges]
    for u, v in dead:
        if u not in adj or v not in adj[u]:
            raise EdgeNotInGraph(f"edge ({u}, {v}) is not in the graph")
    left = mt.without_edges(adj, dead)
    return mt.is_connected(left) and not mt.has_perfect_matching(left)


def sets_of_size(index: mt.PmIndex, size: int) -> Iterator[frozenset[Edge]]:
    """Anti-Kekule sets of exactly this size, in lexicographic order.

    ``index`` must hold every perfect matching (built without a cap).
    """
    if not index.full:
        raise AntiKekuleError("graph has no perfect matching to destroy")
    for combo in itertools.combinations(index.edges, size):
        acc = 0
        for e in combo:
            acc |= index.masks[e]
        if acc != index.full:
            continue
        if len(components(index.adj, frozenset(combo))) == 1:
            yield frozenset(combo)


def search(index: mt.PmIndex) -> AntiKekuleResult:
    """Smallest anti-Kekule set, searched at sizes 1, 2, 3, then 4.

    Raises SearchExhausted if nothing of size <= 4 works; for the graphs
    this project studies that would be a falsification and must be loud.
    """
    for size in range(1, SEARCH_CAP + 1):
        for witness in sets_of_size(index, size):
            return AntiKekuleResult(size, witness)
    raise SearchExhausted(
        f"no anti-Kekule set of size <= {SEARCH_CAP}; every fullerene should "
        f"have one of size 3 or 4")


def anti_kekule_number(g: PlaneCubicGraph | mt.Adjacency) -> AntiKekuleResult:
    """Smallest anti-Kekule set of the graph; see ``search``."""
    return search(mt.PmIndex(mt.adjacency_of(g)))


def min_anti_kekule_sets(g: PlaneCubicGraph | mt.Adjacency, size: int) -> list[frozenset[Edge]]:
    """All anti-Kekule sets of exactly the given size (<= 4)."""
    if size > SEARCH_CAP:
        raise AntiKekuleError(f"size is capped at {SEARCH_CAP}")
    if size <= 0:
        return []
    return list(sets_of_size(mt.PmIndex(mt.adjacency_of(g)), size))
