"""Anti-Kekule sets: edge deletions that keep the graph connected but
destroy every perfect matching.

The number is found by exhaustive search over edge subsets of size 1, 2, 3,
4 in lexicographic order.  An edge subset kills all perfect matchings iff it
intersects every one of them, so the perfect matchings are enumerated once
and indexed per edge as bitsets; subsets are grown depth first with the OR
of their bitsets, a branch ends once it cannot hit every matching any
more, and connectivity is only checked, over vertex bitmasks, for the rare
subsets that hit every matching.  No structural theorem about the expected
answer enters the search.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import matching as mt
from .graphs import Edge, FullexError

SEARCH_CAP = 4


class AntiKekuleError(FullexError):
    pass


class SearchExhausted(AntiKekuleError):
    """No anti-Kekule set of size <= 4 exists; loud, because for any
    (4,5,6)-fullerene that would falsify the structure theory under test."""


class AntiKekuleResult(NamedTuple):
    number: int
    witness_set: frozenset[Edge]


def sets_of_size(index: mt.PmIndex, size: int) -> Iterator[frozenset[Edge]]:
    """Anti-Kekule sets of exactly this size, in lexicographic order.

    ``index`` must hold every perfect matching (built without a cap).  A
    branch ends when its OR and that of every later edge miss a matching;
    the last edge is any later one whose mask holds every matching missed.
    """
    if not index.full:
        raise AntiKekuleError("graph has no perfect matching to destroy")
    if size < 1:
        return  # the empty set destroys no perfect matching
    full, edges = index.full, index.edges
    masks = [index.masks[e] for e in edges]
    later = masks + [0]  # later[i]: the OR of the masks from position i on
    for i in range(len(masks) - 1, -1, -1):
        later[i] |= later[i + 1]
    pos = {v: i for i, v in enumerate(index.adj)}
    nbrs = [sum(1 << pos[w] for w in ns) for ns in index.adj.values()]

    def connected(combo: tuple[int, ...]) -> bool:  # without these edges
        rest = nbrs[:]
        for u, v in (edges[i] for i in combo):
            rest[pos[u]] &= ~(1 << pos[v])
            rest[pos[v]] &= ~(1 << pos[u])
        reached = frontier = 1
        while frontier:
            low = frontier & -frontier
            new = rest[low.bit_length() - 1] & ~reached
            reached |= new
            frontier ^= low | new
        return reached == (1 << len(rest)) - 1

    def extend(chosen: tuple[int, ...], start: int, acc: int) -> Iterator[frozenset[Edge]]:
        if len(chosen) == size - 1:
            missed = full & ~acc
            for j in range(start, len(masks)):
                if masks[j] & missed == missed and connected(chosen + (j,)):
                    yield frozenset(edges[i] for i in chosen + (j,))
            return
        for i in range(start, len(masks) - size + len(chosen) + 1):
            if acc | later[i] != full:
                return  # later[i] only shrinks as i grows
            yield from extend(chosen + (i,), i + 1, acc | masks[i])

    yield from extend((), 0, 0)


def anti_kekule_number(index: mt.PmIndex) -> AntiKekuleResult:
    """Smallest anti-Kekule set of the indexed graph, searched at sizes 1,
    2, 3, then 4; ``index`` must hold every perfect matching.

    Raises SearchExhausted if nothing of size <= 4 works; for the graphs
    this project studies that would be a falsification and must be loud.
    """
    for size in range(1, SEARCH_CAP + 1):
        for witness in sets_of_size(index, size):
            return AntiKekuleResult(size, witness)
    raise SearchExhausted(
        f"no anti-Kekule set of size <= {SEARCH_CAP}; every fullerene should "
        f"have one of size 3 or 4")
