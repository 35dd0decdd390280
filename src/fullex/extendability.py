"""k-extendability decisions with witnesses and certificates.

A graph is k-extendable when it is connected, has at least 2k + 2 vertices
and every matching of k edges lies in some perfect matching.  The scan over
candidate matchings is exhaustive; when the perfect matchings of the graph
are few enough to enumerate they are indexed per edge as bitsets
(``matching.PmIndex``), which turns each candidate test into an AND of k
integers.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from . import matching as mt
from .graphs import Edge, FullexError, PlaneCubicGraph

# beyond this many perfect matchings the scan falls back to per-candidate
# matching computations instead of enumerating them all
ENUMERATION_CAP = 50_000

K_CAP = 3


class ExtendabilityError(FullexError):
    pass


class TooFewVertices(ExtendabilityError):
    pass


class NoPerfectMatching(ExtendabilityError):
    pass


class ExtendabilityReport(NamedTuple):
    k: int
    extendable: bool
    witness: Optional[tuple[Edge, ...]]
    certificate: Optional[mt.DeficiencyCertificate]


def _candidate_matchings(edges: list[Edge], k: int):
    """Size-k matchings of the sorted edge list, in lexicographic order."""
    for combo in itertools.combinations(edges, k):
        if len({v for e in combo for v in e}) == 2 * k:
            yield combo


def check_preconditions(index: mt.PmIndex, k: int) -> None:
    """Raise unless the indexed graph is connected, matchable and big enough
    for k; the caller keeps k in 0..K_CAP."""
    if len(index.adj) < 2 * k + 2:
        raise TooFewVertices(
            f"{len(index.adj)} vertices but k = {k} needs at least {2 * k + 2}")
    if not mt.is_connected(index.adj):
        raise ExtendabilityError("graph is not connected")
    if not index.extends(()):
        raise NoPerfectMatching("graph has no perfect matching")


def nonextendable_matchings(index: mt.PmIndex, k: int) -> Iterator[tuple[Edge, ...]]:
    """Size-k matchings in no perfect matching, in lexicographic order;
    the caller checks the preconditions."""
    for cand in _candidate_matchings(index.edges, k):
        if not index.extends(cand):
            yield cand


def is_k_extendable(g: PlaneCubicGraph | mt.Adjacency, k: int) -> ExtendabilityReport:
    """Scan all size-k matchings; the first one that fails becomes the
    witness, certified by the deficiency certificate of the graph minus its
    endpoints.  An out-of-range k is rejected before any perfect matching
    is enumerated."""
    if not 0 <= k <= K_CAP:
        raise ExtendabilityError(f"k must lie in 0..{K_CAP}, got {k}")
    adj = mt.adjacency_of(g)
    index = mt.PmIndex(adj, ENUMERATION_CAP)
    check_preconditions(index, k)
    witness = next(nonextendable_matchings(index, k), None)
    if witness is None:
        return ExtendabilityReport(k, True, None, None)
    return ExtendabilityReport(k, False, witness, mt.matching_certificate(adj, witness))


def extendability_number(g: PlaneCubicGraph | mt.Adjacency) -> int:
    """Largest k <= K_CAP for which the graph is k-extendable (0 if none)."""
    adj = mt.adjacency_of(g)
    index = mt.PmIndex(adj, ENUMERATION_CAP)
    if not index.extends(()):
        raise NoPerfectMatching("graph has no perfect matching")
    best = 0
    for k in range(1, K_CAP + 1):
        if len(adj) < 2 * k + 2:
            break
        check_preconditions(index, k)
        if next(nonextendable_matchings(index, k), None) is not None:
            break
        best = k
    return best
