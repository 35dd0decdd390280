"""The tube family of non-2-extendable fullerenes.

A tube with n hexagon layers is built from two caps of three quadrilaterals
sharing a center vertex, joined through n + 1 concentric 6-cycles; each gap
between consecutive cycles carries exactly three traversed edges and a ring
of three hexagons.  Vertex count: 6n + 8.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from . import matching as mt
from .graphs import (Edge, FullexError, PlaneCubicGraph, embedding_map, from_rotation,
                     norm_edge, validate_fullerene)


class BadLayerCount(FullexError):
    pass


class TubeDescriptor(NamedTuple):
    n_layers: int
    cap_centers: tuple[int, int]
    concentric_cycles: tuple[tuple[int, ...], ...]
    traversed_edges: tuple[frozenset[Edge], ...]
    cap_stars: tuple[frozenset[Edge], frozenset[Edge]]

    def matching_layers(self) -> tuple[frozenset[Edge], ...]:
        """Edge layers where every perfect matching picks exactly one edge.

        The two cap-center stars count as the innermost and outermost
        layers; the traversed-edge sets fill the gaps in between.
        """
        return (self.cap_stars[0], *self.traversed_edges, self.cap_stars[1])


def build_tube(n_layers: int) -> tuple[PlaneCubicGraph, TubeDescriptor]:
    """Tube with the given number of hexagon layers (>= 1).

    The rotation system is written directly.  With n layers, position j of
    concentric cycle i is v(i, j) = 1 + 6i + (j mod 6), and for even j:
    - cap center 0: (v(0, 0), v(0, 4), v(0, 2));
    - v(i, j): (v(i, j + 1), v(i, j - 1), v(i - 1, j + 1)), or 0 when i = 0;
    - v(i, j + 1): (v(i, j), v(i, j + 2), v(i + 1, j)), or 6n + 7 when i = n;
    - cap center 6n + 7: (v(n, 1), v(n, 3), v(n, 5)).
    Each entry is rotated so that its least neighbor comes first.
    """
    if n_layers < 1:
        raise BadLayerCount(f"need at least 1 layer, got {n_layers}")
    n = n_layers
    v = lambda i, j: 1 + 6 * i + j % 6  # position j of concentric cycle i
    center_a = 0
    center_b = 6 * n + 7

    rot = [(v(0, 0), v(0, 4), v(0, 2))]
    for i in range(n + 1):
        for j in range(0, 6, 2):
            rot.append((v(i, j + 1), v(i, j - 1), v(i - 1, j + 1) if i else center_a))
            rot.append((v(i, j), v(i, j + 2), v(i + 1, j) if i < n else center_b))
    rot.append((v(n, 1), v(n, 3), v(n, 5)))
    g = from_rotation(6 * n + 8, [min(r[k:] + r[:k] for k in range(3)) for r in rot])
    cycles = tuple(tuple(v(i, j) for j in range(6)) for i in range(n + 1))
    traversed = tuple(
        frozenset(norm_edge(v(i - 1, 2 * t + 1), v(i, 2 * t)) for t in range(3))
        for i in range(1, n + 1))
    stars = (frozenset(norm_edge(center_a, w) for w in g.adj[center_a]),
             frozenset(norm_edge(center_b, w) for w in g.adj[center_b]))
    desc = TubeDescriptor(n, (center_a, center_b), cycles, traversed, stars)
    return g, desc


def recognize_tube(g: PlaneCubicGraph) -> Optional[TubeDescriptor]:
    """Descriptor of g as a tube, or None when g is not one.

    Membership is decided by an explicit embedding isomorphism (mirror
    allowed) from the built tube of the matching size, which
    ``embedding_map`` finds whenever one exists; the pentagon-free and
    vertex-count gates are only shortcuts.  The built descriptor is
    transported onto g through the isomorphism; an embedding isomorphism
    maps faces onto faces of the same size, so the built tube's only two
    all-quadrilateral vertices, its cap centers, land on g's.
    """
    inv = validate_fullerene(g)
    if inv.p5 != 0 or g.n < 14 or (g.n - 8) % 6 != 0:
        return None
    layers = (g.n - 8) // 6
    built, desc = build_tube(layers)
    phi = embedding_map(built, g)
    if phi is None:
        return None
    centers = tuple(phi[c] for c in desc.cap_centers)
    cycles = tuple(tuple(phi[v] for v in cyc) for cyc in desc.concentric_cycles)
    traversed = tuple(
        frozenset(norm_edge(phi[u], phi[v]) for u, v in layer)
        for layer in desc.traversed_edges)
    stars = tuple(frozenset(norm_edge(phi[u], phi[v]) for u, v in star)
                  for star in desc.cap_stars)
    return TubeDescriptor(layers, (centers[0], centers[1]), cycles, traversed,
                          (stars[0], stars[1]))


class TubePerfectMatchingReport(NamedTuple):
    """Exhaustive comparison of a tube's perfect matchings with its layers.

    The matching layers are the two cap-center stars plus the traversed-edge
    set of every gap; a perfect matching picks exactly one edge from each.
    ``gap_extension_counts`` records how many perfect matchings extend every
    traversed-edges-only selection (the two caps each contribute a factor 3,
    so the value is 9 throughout).  ``gap_pair_in_common_pm`` is the first
    pair of traversed edges of one gap that some perfect matching contains,
    or None.
    """

    pm_count: int
    layer_sizes: tuple[int, ...]
    one_traversed_per_gap: bool
    one_star_edge_per_cap: bool
    every_layer_selection_unique: bool
    gap_extension_counts: tuple[int, ...]
    gap_pair_in_common_pm: Optional[tuple[Edge, Edge]]

    @property
    def count_matches_layer_product(self) -> bool:
        return self.pm_count == math.prod(self.layer_sizes)

    @property
    def selection_bijection_holds(self) -> bool:
        return (self.one_traversed_per_gap and self.one_star_edge_per_cap
                and self.every_layer_selection_unique
                and self.count_matches_layer_product)


def verify_tube_pm_structure(g: PlaneCubicGraph,
                             desc: TubeDescriptor) -> TubePerfectMatchingReport:
    """Measure the perfect-matching layer structure of a tube from ``build_tube``.

    One index of every perfect matching answers each check by counting the
    perfect matchings that contain given edges: (a) a layer holds exactly
    one edge of every perfect matching when its single-edge counts sum to
    the total and no two of its edges share one; (b) every selection of
    one edge per matching layer must lie in exactly one perfect matching;
    (c) the count equals the product of the layer sizes.  Everything is
    measured, nothing assumed.
    """
    if desc.n_layers > 6:
        raise BadLayerCount(f"the exhaustive check takes at most 6 layers, got {desc.n_layers}")
    count = mt.PmIndex(g.adj_dict()).count
    pm_count = count(())

    def one_per_pm(layer: frozenset[Edge]) -> bool:
        return (sum(count((e,)) for e in layer) == pm_count
                and not any(map(count, itertools.combinations(layer, 2))))

    layers = desc.matching_layers()
    gaps = desc.traversed_edges
    return TubePerfectMatchingReport(
        pm_count=pm_count,
        layer_sizes=tuple(len(layer) for layer in layers),
        one_traversed_per_gap=all(one_per_pm(layer) for layer in gaps),
        one_star_edge_per_cap=all(one_per_pm(star) for star in desc.cap_stars),
        every_layer_selection_unique=all(
            count(sel) == 1
            for sel in itertools.product(*[sorted(layer) for layer in layers])),
        gap_extension_counts=tuple(sorted(
            map(count, itertools.product(*[sorted(layer) for layer in gaps])))),
        gap_pair_in_common_pm=next(
            (pair for layer in gaps
             for pair in itertools.combinations(sorted(layer), 2)
             if count(pair)), None),
    )
