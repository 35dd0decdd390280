import itertools

import pytest

from fullex import extendability as E
from fullex import families as F
from fullex import matching as M

from conftest import catalogue, certificate_valid, nonextendable_pairs


def test_cube_and_dodecahedron_are_two_extendable(cube, dodecahedron):
    for g in (cube, dodecahedron):
        assert E.is_k_extendable(g, 1).extendable
        assert E.is_k_extendable(g, 2).extendable


def test_no_fullerene_is_three_extendable(cube, dodecahedron):
    for g in (cube, dodecahedron):
        rep = E.is_k_extendable(g, 3)
        assert not rep.extendable
        assert rep.witness is not None
        assert not M.extends_to_perfect(g, rep.witness)


def test_extendability_numbers(cube, dodecahedron):
    assert E.extendability_number(cube) == 2
    assert E.extendability_number(dodecahedron) == 2
    assert E.extendability_number(F.build_tube(1)[0]) == 1


def test_tube_witness_is_traversed_pair():
    g, desc = F.build_tube(2)
    rep = E.is_k_extendable(g, 2)
    assert not rep.extendable
    witness = set(rep.witness)
    assert any(witness <= set(layer) for layer in desc.traversed_edges)
    cert = rep.certificate
    assert cert is not None
    assert certificate_valid(cert)
    assert len(cert.components) == len(cert.S) + 2


def test_witness_is_first_lexicographic():
    g, _ = F.build_tube(1)
    rep = E.is_k_extendable(g, 2)
    adj = M.adjacency_of(g)
    for cand in E._candidate_matchings(M.edges_of(adj), 2):
        if cand == rep.witness:
            break
        assert M.extends_to_perfect(adj, cand)


def test_nonextendable_pairs_tube():
    g, desc = F.build_tube(1)
    pairs = nonextendable_pairs(g)
    found = {frozenset(r.witness) for r in pairs}
    for layer in desc.traversed_edges:
        for pair in itertools.combinations(sorted(layer), 2):
            assert frozenset(pair) in found
    for r in pairs:
        assert not M.extends_to_perfect(g, r.witness)
        assert certificate_valid(r.certificate)


def test_nonextendable_pairs_empty_for_dodecahedron(dodecahedron):
    assert nonextendable_pairs(dodecahedron) == []


def test_pm_index_agrees_with_direct_checks(cube):
    adj = M.adjacency_of(cube)
    index = M.PmIndex(adj, E.ENUMERATION_CAP)
    for cand in E._candidate_matchings(M.edges_of(adj), 2):
        assert index.extends(cand) == M.extends_to_perfect(adj, cand)


def test_preconditions():
    small = {0: {1}, 1: {0}}
    with pytest.raises(E.TooFewVertices):
        E.is_k_extendable(small, 1)
    disconnected = {0: {1}, 1: {0, 2}, 2: {1}, 3: {4}, 4: {3, 5}, 5: {4}}
    with pytest.raises(E.ExtendabilityError):
        E.is_k_extendable(disconnected, 1)
    with pytest.raises(E.NoPerfectMatching):
        E.extendability_number({0: {1, 2}, 1: {0, 2}, 2: {0, 1}})
    star = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}  # connected, even, unmatchable
    for k in (0, 1):
        with pytest.raises(E.NoPerfectMatching):
            E.is_k_extendable(star, k)
    with pytest.raises(E.ExtendabilityError):
        E.is_k_extendable(small, -1)


def test_path_four_middle_edge_is_witness():
    path4 = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    rep = E.is_k_extendable(path4, 1)
    assert not rep.extendable
    assert rep.witness == ((1, 2),)
    assert rep.certificate.deficiency == 2


def test_enumerated_twelve_vertex_fullerenes():
    cat = catalogue(12)
    verdicts = sorted(E.is_k_extendable(g, 2).extendable for g in cat.graphs)
    assert verdicts == [False, True]  # one sporadic exception, one prism


def _triangles(t: int) -> dict[int, frozenset[int]]:
    """t disjoint triangles: 3t vertices and no perfect matching."""
    return {v: frozenset({3 * (v // 3) + (v + 1) % 3, 3 * (v // 3) + (v + 2) % 3})
            for v in range(3 * t)}


def test_capped_index_falls_back_to_matching_computations(cube):
    adj = M.adjacency_of(cube)
    capped = M.PmIndex(adj, 3)  # the cube has 9 perfect matchings
    assert capped.masks is None
    full = M.PmIndex(adj)
    assert full.full == (1 << 9) - 1
    for k in range(4):  # k = 0 compares the empty matching too
        for cand in E._candidate_matchings(M.edges_of(adj), k):
            assert capped.extends(cand) == full.extends(cand)
    # no perfect matching: 6 vertices take the masks path, 66 the blossom one
    masked = M.PmIndex(_triangles(2))
    blossom = M.PmIndex(_triangles(22), E.ENUMERATION_CAP)
    assert masked.masks is not None and blossom.masks is None
    assert not masked.extends(()) and not blossom.extends(())
    assert masked.count(()) == 0


def test_extendability_runs_no_second_matching_engine(monkeypatch, cube, dodecahedron):
    calls = 0
    has_pm = M.has_perfect_matching

    def counted(g):
        nonlocal calls
        calls += 1
        return has_pm(g)

    monkeypatch.setattr(M, "has_perfect_matching", counted)
    for g in (cube, dodecahedron, F.build_tube(1)[0]):
        for k in range(E.K_CAP + 1):
            E.is_k_extendable(g, k)
        E.extendability_number(g)
    assert calls == 0
    capped = M.PmIndex(M.adjacency_of(cube), 3)  # no masks: the blossom answers
    assert capped.masks is None and capped.extends(())
    assert calls == 1


def _prism(k: int) -> dict[int, frozenset[int]]:
    """C_k x K_2: outer cycle 0..k-1, inner cycle k..2k-1, spokes i -- k + i."""
    adj: dict[int, set[int]] = {v: set() for v in range(2 * k)}
    for i in range(k):
        for u, w in ((i, (i + 1) % k), (k + i, k + (i + 1) % k), (i, k + i)):
            adj[u].add(w)
            adj[w].add(u)
    return {v: frozenset(ns) for v, ns in adj.items()}


def _count_draws(monkeypatch) -> list:
    """Record each perfect matching drawn from ``M.perfect_matchings``."""
    drawn = []
    enumerate_all = M.perfect_matchings

    def counted(g):
        for pm in enumerate_all(g):
            drawn.append(pm)
            yield pm

    monkeypatch.setattr(M, "perfect_matchings", counted)
    return drawn


def test_capped_index_stops_the_enumeration_at_the_cap(monkeypatch):
    adj = _prism(32)  # 64 vertices, L_32 + 2 = 4 870 849 perfect matchings
    drawn = _count_draws(monkeypatch)
    assert M.PmIndex(adj, E.ENUMERATION_CAP).masks is None
    assert len(drawn) == E.ENUMERATION_CAP + 1


def test_out_of_range_k_enumerates_no_perfect_matching(monkeypatch):
    drawn = _count_draws(monkeypatch)
    for k in (5, -1):
        with pytest.raises(E.ExtendabilityError, match=rf"^k must lie in 0\.\.3, got {k}$"):
            E.is_k_extendable(_prism(32), k)
    assert drawn == []
