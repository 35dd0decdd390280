"""Maximum matching, perfect-matching machinery and deficiency certificates.

Graphs here are arbitrary simple graphs given as adjacency mappings
``{vertex: iterable of neighbors}``; vertices are ints but need not be
contiguous, so deleted subgraphs stay cheap to form.  The matching engine
is the blossom-contraction algorithm, whose alternating search also gives
the Gallai-Edmonds set D; exhaustive search over all matchings is kept to
the test suite as the independent oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graphs import Edge, FullexError, PlaneCubicGraph, components, norm_edge

Adjacency = Mapping[int, Iterable[int]]

COUNT_LIMIT = 64


class MatchingError(FullexError):
    pass


class NotAMatching(MatchingError):
    pass


class TooLarge(MatchingError):
    pass


def adjacency_of(g: PlaneCubicGraph | Adjacency) -> dict[int, frozenset[int]]:
    if isinstance(g, PlaneCubicGraph):
        return g.adj_dict()
    return {v: frozenset(ns) for v, ns in g.items()}


def induced(adj: Adjacency, removed: Iterable[int]) -> dict[int, frozenset[int]]:
    gone = set(removed)
    return {v: frozenset(w for w in ns if w not in gone)
            for v, ns in adj.items() if v not in gone}


def edges_of(adj: Adjacency) -> list[Edge]:
    return sorted({norm_edge(v, w) for v, ns in adj.items() for w in ns})


def is_connected(adj: Adjacency) -> bool:
    return len(adj) == 0 or len(components(adj)) == 1


# ---------------------------------------------------------------------------
# Blossom maximum matching
# ---------------------------------------------------------------------------

def _blossom_matching(n: int, adj: Sequence[Sequence[int]],
                      even: list[bool] | None = None) -> list[int]:
    """Maximum matching on vertices 0..n-1; returns the mate array (-1 free).
    With `even`, a search from each exposed vertex marks there its outer ones."""
    match = [-1] * n
    for v in range(n):  # greedy seed
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        used = set()
        x = a
        while True:
            x = base[x]
            used.add(x)
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if y in used:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
            used[i] = False
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting(v)
            while end != -1:
                pv = p[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv
    if even is not None:
        for v in range(n):
            if match[v] == -1:
                find_augmenting(v)  # finds no path: the matching is maximum
                even[:] = map(max, even, used)
    return match


def _compact(adj: Adjacency) -> tuple[list[int], list[list[int]]]:
    """The sorted vertices, and the adjacency on their positions."""
    verts = sorted(adj)
    idx = {v: i for i, v in enumerate(verts)}
    return verts, [[idx[w] for w in sorted(adj[v])] for v in verts]


def maximum_matching(g: PlaneCubicGraph | Adjacency) -> tuple[Edge, ...]:
    """A maximum-cardinality matching, as a sorted tuple of normalized edges."""
    verts, compact = _compact(adjacency_of(g))
    mate = _blossom_matching(len(verts), compact)
    out = {norm_edge(verts[i], verts[j])
           for i, j in enumerate(mate) if j != -1}
    return tuple(sorted(out))


def has_perfect_matching(g: PlaneCubicGraph | Adjacency) -> bool:
    adj = adjacency_of(g)
    return 2 * len(maximum_matching(adj)) == len(adj)


def check_matching(adj: Adjacency, m: Iterable[Edge]) -> tuple[Edge, ...]:
    """Normalize and validate a matching; raises NotAMatching otherwise."""
    edges = tuple(sorted(norm_edge(*e) for e in m))
    seen: set[int] = set()
    for u, v in edges:
        if u not in adj or v not in adj[u]:
            raise NotAMatching(f"edge ({u}, {v}) is not in the graph")
        if u in seen or v in seen:
            raise NotAMatching(f"edge ({u}, {v}) shares an endpoint")
        seen.update((u, v))
    return edges


def extends_to_perfect(g: PlaneCubicGraph | Adjacency, m: Iterable[Edge]) -> bool:
    """True iff the matching is contained in some perfect matching."""
    adj = adjacency_of(g)
    edges = check_matching(adj, m)
    covered = {v for e in edges for v in e}
    return has_perfect_matching(induced(adj, covered))


def matching_certificate(adj: Adjacency, m: Iterable[Edge]) -> DeficiencyCertificate:
    """The deficiency certificate of G minus the ends of m; NotAMatching unless m is one."""
    return deficiency_certificate(induced(adj, {v for e in check_matching(adj, m) for v in e}))


# ---------------------------------------------------------------------------
# Perfect-matching enumeration
# ---------------------------------------------------------------------------

def perfect_matchings(g: PlaneCubicGraph | Adjacency) -> Iterator[tuple[Edge, ...]]:
    """All perfect matchings, in lexicographic order of sorted edge lists.

    Backtracks on the smallest uncovered vertex over int bitmasks; bounded
    at 64 vertices.  Bit i stands for the i-th smallest vertex, so the
    lowest set bit of the free mask is the smallest uncovered vertex v and
    its partners w are tried in ascending order.  Covering v and w changes
    only the free neighbourhoods of their free neighbours, so only those
    are looked at, and the look cascades: one left with no free neighbour
    ends the branch, and one left with exactly one is matched to it (a
    forced edge), which touches the free neighbours of that partner.

    Neither changes the output.  A forced edge lies in every perfect
    matching that extends the edges chosen so far, so the branch holds the
    same matchings, and a dead end holds none.  The order holds too: for
    two perfect matchings A and B, sorted(A) < sorted(B) iff the least
    edge of their symmetric difference is in A, as both have n/2 edges.
    Matchings from the branch on (v, w) and from a later (v, w') differ
    first at (v, w), since every edge they do not share lies among the
    free vertices, all at least v.  Edges common to a whole branch, the
    forced ones included, leave every symmetric difference in it alone.
    """
    adj = adjacency_of(g)
    if len(adj) > COUNT_LIMIT:
        raise TooLarge(f"{len(adj)} vertices exceed the enumeration bound")
    if len(adj) % 2 != 0:
        return
    verts = sorted(adj)
    pos = {v: i for i, v in enumerate(verts)}
    nbrs = [sum(1 << pos[w] for w in adj[v]) for v in verts]
    partners = [[(pos[w], (v, w)) for w in sorted(adj[v])] for v in verts]
    chosen: list[Edge] = []

    def recurse(free: int) -> Iterator[tuple[Edge, ...]]:
        if not free:
            yield tuple(sorted(chosen))
            return
        v = (free & -free).bit_length() - 1
        free ^= 1 << v
        for w, edge in partners[v]:
            if not free >> w & 1:
                continue
            left = free ^ (1 << w)
            mark = len(chosen)
            chosen.append(edge)
            touched = (nbrs[v] | nbrs[w]) & left
            while touched:
                low = touched & -touched
                touched ^= low
                only = nbrs[low.bit_length() - 1] & left
                if not only:
                    break
                if not only & (only - 1):  # one free neighbour: forced
                    x, y = low.bit_length() - 1, only.bit_length() - 1
                    chosen.append(norm_edge(verts[x], verts[y]))
                    left ^= low | only
                    touched = (touched | nbrs[y]) & left
            else:
                yield from recurse(left)
            del chosen[mark:]

    yield from recurse((1 << len(verts)) - 1)


def count_perfect_matchings(g: PlaneCubicGraph | Adjacency) -> int:
    return sum(1 for _ in perfect_matchings(g))


class PmIndex:
    """Per-edge bitsets over the perfect matchings of one graph, which
    answer their existence, extension and counts.

    Bit i of ``masks[e]`` is set when the i-th perfect matching contains e;
    ``full`` has a bit per perfect matching.  With a ``cap``, past
    COUNT_LIMIT vertices or ``cap`` matchings ``masks`` is None, ``count``
    fails and ``extends`` runs one matching computation per query instead.
    """

    def __init__(self, adj: Mapping[int, frozenset[int]], cap: int | None = None):
        self.adj = adj
        self.edges = edges_of(adj)
        self.masks: dict[Edge, int] | None = None
        self.full = 0
        if cap is not None and len(adj) > COUNT_LIMIT:
            return
        masks = {e: 0 for e in self.edges}
        count = 0
        for pm in perfect_matchings(adj):
            if count == cap:
                return
            bit = 1 << count
            for e in pm:
                masks[e] |= bit
            count += 1
        self.masks = masks
        self.full = (1 << count) - 1

    def count(self, edges: Iterable[Edge]) -> int:
        """How many perfect matchings contain every given edge."""
        acc = self.full
        for e in edges:
            acc &= self.masks[e]
        return acc.bit_count()

    def extends(self, edges: Iterable[Edge]) -> bool:
        """True iff the edges, which must be a matching of the graph, lie in a
        perfect matching; for no edges, iff it has one.  Only the blossom path
        validates them, raising NotAMatching."""
        if self.masks is None:
            return extends_to_perfect(self.adj, edges)
        acc = self.full
        for e in edges:
            acc &= self.masks[e]
            if acc == 0:
                return False
        return acc != 0


def is_factor_critical(g: PlaneCubicGraph | Adjacency) -> bool:
    """G - v has a perfect matching for every v: by Gallai's lemma, G connected and D = V."""
    adj = adjacency_of(g)
    return is_connected(adj) and _gallai_edmonds_d(adj) == set(adj)


# ---------------------------------------------------------------------------
# Deficiency certificates
# ---------------------------------------------------------------------------

class DeficiencyCertificate(NamedTuple):
    """Vertex set S with the components of G - S, all factor-critical.

    The graph has a perfect matching iff ``len(S) == len(components)``;
    otherwise S witnesses the deficiency ``len(components) - len(S)``.
    """

    S: frozenset[int]
    components: tuple[frozenset[int], ...]
    factor_critical_flags: tuple[bool, ...]
    matchable: bool

    @property
    def deficiency(self) -> int:
        return len(self.components) - len(self.S)


def _gallai_edmonds_d(adj: Adjacency) -> set[int]:
    """Vertices missed by at least one maximum matching, from one of them.

    For a maximum matching M, some maximum matching misses v iff an even
    M-alternating path reaches v from a vertex M leaves exposed (swap M along
    it; conversely, take the component at v of M xor a maximum matching
    missing v).  Edmonds' search from an exposed root that finds no
    augmenting path labels outer exactly the ends of such paths (Edmonds
    1965; Lovasz and Plummer, Matching Theory, 1986)."""
    verts, compact = _compact(adj)
    even = [False] * len(verts)
    _blossom_matching(len(verts), compact, even)
    return {v for v, outer in zip(verts, even) if outer}


def _structure_set(adj: dict[int, frozenset[int]]) -> set[int]:
    """A vertex set whose removal leaves only factor-critical components.

    Built from the Gallai-Edmonds decomposition: the neighborhood set of
    the D-part joins S directly; each perfectly matchable component left
    over is split recursively by pinning one vertex into S.
    """
    if not adj:
        return set()
    d_part = _gallai_edmonds_d(adj)
    a_part = {w for v in d_part for w in adj[v]} - d_part
    s = set(a_part)
    for comp in components(induced(adj, d_part | a_part)):
        u = min(comp)
        s.add(u)
        s |= _structure_set(induced(adj, set(adj) - comp | {u}))
    return s


def _matchable_to_components(adj: Adjacency, s: frozenset[int],
                             comps: Sequence[frozenset[int]]) -> bool:
    """Bipartite test: can S be matched to distinct components of G - S?"""
    if not s:
        return True
    comp_id = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = i
    bip: dict[int, set[int]] = {v: set() for v in s}
    base = max(adj) + 1
    for v in s:
        for w in adj[v]:
            if w in comp_id:
                bip[v].add(base + comp_id[w])
                bip.setdefault(base + comp_id[w], set()).add(v)
    mm = maximum_matching(bip)
    return len(mm) == len(s)


def deficiency_certificate(g: PlaneCubicGraph | Adjacency) -> DeficiencyCertificate:
    """Certificate in the strong Tutte form, verified post hoc.

    The returned set satisfies both defining properties literally: every
    component of G - S is factor-critical (checked), and S is matchable to
    the components (checked by bipartite matching).
    """
    adj = adjacency_of(g)
    s = frozenset(_structure_set(adj))
    comps = tuple(frozenset(c) for c in components(induced(adj, s)))
    flags = tuple(is_factor_critical(induced(adj, set(adj) - c)) for c in comps)
    matchable = _matchable_to_components(adj, s, comps)
    return DeficiencyCertificate(s, comps, flags, matchable)
