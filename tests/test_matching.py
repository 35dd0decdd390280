import random

import pytest

from fullex import graphs as G
from fullex import matching as M
from fullex.families import build_tube

from conftest import (backtracking_perfect_matchings, brute_max_matching_size,
                      brute_perfect_matchings, catalogue, certificate_valid, cube_graph,
                      dodecahedron_graph, implies_perfect_matching, random_simple_graph,
                      relabel_rotation, relabelled_mirror)


def path(n):
    return {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}


def cycle(n):
    return {i: {(i + 1) % n, (i - 1) % n} for i in range(n)}


def test_maximum_matching_basics():
    assert len(M.maximum_matching(path(3))) == 1
    assert len(M.maximum_matching(cycle(6))) == 3


def test_maximum_matching_against_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        adj = random_simple_graph(rng)
        assert len(M.maximum_matching(adj)) == brute_max_matching_size(adj)


def test_matching_output_is_valid():
    rng = random.Random(5)
    for _ in range(50):
        adj = random_simple_graph(rng)
        mm = M.maximum_matching(adj)
        M.check_matching(adj, mm)


def test_has_perfect_matching(cube):
    assert M.has_perfect_matching(cube)
    assert not M.has_perfect_matching(path(3))
    assert not M.has_perfect_matching(cycle(5))
    assert M.has_perfect_matching({})


def test_extends_to_perfect(cube):
    assert M.extends_to_perfect(cube, [])
    for e in M.edges_of(cube.adj_dict()):
        assert M.extends_to_perfect(cube, [e])
    with pytest.raises(M.NotAMatching):
        M.extends_to_perfect(cube, [(0, 1), (1, 2)])
    with pytest.raises(M.NotAMatching):
        M.extends_to_perfect(cube, [(0, 6)])


def test_matching_certificate_rejects_a_non_matching(cube):
    adj = cube.adj_dict()
    with pytest.raises(M.NotAMatching):
        M.matching_certificate(adj, [(0, 1), (1, 2)])
    with pytest.raises(M.NotAMatching):
        M.matching_certificate(adj, [(0, 99)])
    cert = M.matching_certificate(adj, [(1, 0)])
    assert cert == M.deficiency_certificate(M.induced(adj, [0, 1]))


def test_extends_equals_deleted_subgraph_matchability():
    rng = random.Random(77)
    for _ in range(60):
        adj = random_simple_graph(rng, max_n=10)
        edges = M.edges_of(adj)
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        assert M.extends_to_perfect(adj, [e]) == M.has_perfect_matching(
            M.induced(adj, e))


def test_perfect_matching_counts(cube, k4, dodecahedron):
    assert M.count_perfect_matchings(cycle(6)) == 2
    assert M.count_perfect_matchings(k4) == 3
    for g, pms in ((cube, 9), (dodecahedron, 36), (build_tube(1)[0], 27)):
        index = M.PmIndex(M.adjacency_of(g))  # its count of no edges agrees
        assert M.count_perfect_matchings(g) == index.count(()) == pms


def test_enumeration_matches_brute_force(cube, k4):
    for g in (cube, k4):
        adj = M.adjacency_of(g)
        assert set(M.perfect_matchings(adj)) == brute_perfect_matchings(adj)
    rng = random.Random(11)
    for _ in range(40):
        adj = random_simple_graph(rng, max_n=10)
        assert set(M.perfect_matchings(adj)) == brute_perfect_matchings(adj)


def test_enumeration_is_lexicographic(cube):
    pms = list(M.perfect_matchings(cube))
    assert pms == sorted(pms)
    assert len(pms) == len(set(pms))


def _spread(g):
    """The adjacency of g on the non-contiguous labels 3v + 5."""
    return {3 * v + 5: frozenset(3 * w + 5 for w in ns) for v, ns in M.adjacency_of(g).items()}


def _disjoint_union(a, b):
    shift = max(a) + 1 - min(b)
    return {**a, **{v + shift: frozenset(w + shift for w in ns) for v, ns in b.items()}}


def _oracle_graphs():
    """Every catalogue graph with n <= 20 and the tubes of 1-5 layers; a
    seeded relabelled mirror copy of each on labels 3v + 5 and a relabelled
    one on labels 0..n-1; the forced-chain graph; induced
    subgraphs of odd order, of even order and with several components."""
    rng = random.Random(8)
    plane = [g for n in range(8, 21, 2) for g in catalogue(n).graphs]
    tubes = [build_tube(layers) for layers in range(1, 6)]
    plane += [g for g, _ in tubes]
    graphs = [M.adjacency_of(g) for g in plane]
    graphs += [_spread(relabelled_mirror(g, rng)) for g in plane]
    graphs += [M.adjacency_of(G.from_rotation(g.n, relabel_rotation(g.rot, rng, False)))
               for g in plane]
    cube, tube2 = M.adjacency_of(cube_graph()), M.adjacency_of(tubes[1][0])
    rings, (cap_a, cap_b) = tubes[1][1].concentric_cycles, tubes[1][1].cap_centers
    union = _disjoint_union(cube, _spread(dodecahedron_graph()))  # labels 0..7, then 8, 11, ..
    graphs += [
        M.induced(cube, [0]),
        M.induced(cube, [0, 1]),
        M.induced(tube2, [cap_a, *rings[1]]),
        M.induced(tube2, rings[1]),
        M.induced(tube2, [cap_a, cap_b, *rings[1]]),
        union,
        M.induced(union, [0, max(union)]),
        M.induced(union, [0, 1, 8, max(union)]),
        _forced_chain(),
        _spread(_forced_chain()),
    ]
    return graphs


def _forced_chain():
    """Choosing the edge 01 forces 23 and then 45, and leaves 6 with no
    free neighbour; 02 completes to the one perfect matching."""
    edges = [(0, 1), (0, 2), (1, 7), (2, 3), (3, 4), (3, 7), (4, 5), (5, 6)]
    adj = {v: set() for v in range(8)}
    for v, w in edges:
        adj[v].add(w)
        adj[w].add(v)
    return {v: frozenset(ns) for v, ns in adj.items()}


def test_forced_chain_ending_in_a_dead_end():
    adj = _forced_chain()
    pms = list(M.perfect_matchings(adj))
    assert pms == [((0, 2), (1, 7), (3, 4), (5, 6))]
    assert pms == list(backtracking_perfect_matchings(adj))
    assert set(pms) == brute_perfect_matchings(adj)


def test_enumeration_is_the_backtracking_oracle_in_order():
    total = 0
    for adj in _oracle_graphs():
        pms = list(M.perfect_matchings(adj))
        assert pms == list(backtracking_perfect_matchings(adj))
        total += len(pms)
    assert total > 10_000


def test_enumeration_bound():
    big = {i: set() for i in range(66)}
    with pytest.raises(M.TooLarge):
        list(M.perfect_matchings(big))


def test_factor_critical():
    assert M.is_factor_critical(cycle(5))
    assert not M.is_factor_critical(cycle(4))
    assert M.is_factor_critical({0: set()})
    assert not M.is_factor_critical(path(3))


def test_certificate_path3():
    cert = M.deficiency_certificate(path(3))
    assert sorted(cert.S) == [1]
    assert len(cert.components) == 2
    assert certificate_valid(cert)
    assert not implies_perfect_matching(cert)


def test_certificate_cube(cube):
    cert = M.deficiency_certificate(cube)
    assert len(cert.S) == len(cert.components)
    assert certificate_valid(cert)
    assert implies_perfect_matching(cert)


def test_certificate_random_graphs():
    rng = random.Random(31337)
    for _ in range(150):
        adj = random_simple_graph(rng, max_n=11)
        cert = M.deficiency_certificate(adj)
        assert certificate_valid(cert)
        assert implies_perfect_matching(cert) == M.has_perfect_matching(adj)
        missed = len(adj) - 2 * len(M.maximum_matching(adj))
        assert cert.deficiency == missed
        # re-verify the two properties independently of the construction
        for comp in cert.components:
            assert M.is_factor_critical(M.induced(adj, set(adj) - comp))
        assert M._matchable_to_components(adj, cert.S, cert.components)
