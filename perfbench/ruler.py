"""A fixed pure-Python graph workload that measures the machine, not fullex.

    python3 perfbench/ruler.py

The timed runs alternate it with the program's operations and divide the
operations' time by its time, so that a slower or faster spell of the
shared host, which stretches both alike, cancels out of the ratio.  It
imports nothing from fullex, so no change to the program moves it.  Its
work mimics the program's hot loops on prism graphs: perfect matchings by
recursion over frozensets, a three-edge cut scan with breadth-first search,
and a breadth-first relabelling from every dart.  It prints one line of
exact counts, which the benchmark checks.
"""

from __future__ import annotations

import itertools
import sys

PRISMS = range(10, 19)
BFS_PRISMS = range(10, 33)
CUT_PRISMS = range(6, 12)


def prism(k: int) -> dict[int, tuple[int, ...]]:
    """The k-prism as a rotation system: two k-cycles joined by spokes."""
    rot = {}
    for i in range(k):
        j, h = (i + 1) % k, (i - 1) % k
        rot[i] = (j, k + i, h)
        rot[k + i] = (k + h, i, k + j)
    return rot


def perfect_matchings(adj) -> list[frozenset]:
    out = []

    def rec(free: frozenset, acc: list) -> None:
        if not free:
            out.append(frozenset(acc))
            return
        v = min(free)
        for w in adj[v]:
            if w in free:
                rec(free - {v, w}, acc + [(min(v, w), max(v, w))])

    rec(frozenset(adj), [])
    return out


def connected_without(adj, removed: set) -> bool:
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in seen and (min(v, w), max(v, w)) not in removed:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)


def three_cuts(adj) -> int:
    edges = sorted({(min(v, w), max(v, w)) for v in adj for w in adj[v]})
    return sum(1 for cut in itertools.combinations(edges, 3)
               if not connected_without(adj, set(cut)))


def bfs_codes(rot) -> int:
    """Distinct breadth-first relabellings over all darts."""
    codes = set()
    for v in rot:
        for first in range(3):
            label = {v: 0}
            order = [v]
            code = []
            for u in order:
                nbrs = rot[u]
                # turn from the earliest-labelled neighbour, or from `first`
                k = first if u == v else min(
                    range(3), key=lambda t: label.get(nbrs[t], len(rot)))
                for t in range(3):
                    w = nbrs[(k + t) % 3]
                    if w not in label:
                        label[w] = len(order)
                        order.append(w)
                    code.append(label[w])
            codes.add(tuple(code))
    return len(codes)


def counts() -> list[int]:
    out = []
    for k in PRISMS:
        out.append(len(set(perfect_matchings(prism(k)))))
    for k in BFS_PRISMS:
        out.append(bfs_codes(prism(k)))
    for k in CUT_PRISMS:
        out.append(three_cuts(prism(k)))
    return out


def main() -> int:
    print(" ".join(map(str, counts())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
