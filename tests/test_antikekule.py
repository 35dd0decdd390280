import itertools

import pytest

from fullex import antikekule as AK
from fullex import families as F
from fullex import matching as M

from conftest import (EdgeNotInGraph, catalogue, is_anti_kekule_set, min_anti_kekule_sets,
                      two_blocks_joined_by_a_bridge, two_blocks_joined_by_two_edges,
                      without_edges)


def test_is_anti_kekule_set_basics(cube):
    assert not is_anti_kekule_set(cube, [])
    for e in M.edges_of(cube.adj_dict()):
        assert not is_anti_kekule_set(cube, [e])
    with pytest.raises(EdgeNotInGraph):
        is_anti_kekule_set(cube, [(0, 6)])


def test_cube_and_dodecahedron_have_number_four(cube, dodecahedron):
    for g in (cube, dodecahedron):
        result = AK.anti_kekule_number(M.PmIndex(g.adj_dict()))
        assert result.number == 4
        assert is_anti_kekule_set(g, result.witness_set)
        assert min_anti_kekule_sets(g, 3) == []


def test_witness_leaves_connected_graph(cube):
    result = AK.anti_kekule_number(M.PmIndex(cube.adj_dict()))
    left = without_edges(M.adjacency_of(cube), result.witness_set)
    assert M.is_connected(left)
    assert not M.has_perfect_matching(left)


def test_witness_is_lexicographically_first(cube):
    result = AK.anti_kekule_number(M.PmIndex(cube.adj_dict()))
    adj = M.adjacency_of(cube)
    for combo in itertools.combinations(M.edges_of(adj), 4):
        if frozenset(combo) == result.witness_set:
            break
        assert not is_anti_kekule_set(adj, combo)


def test_sporadic_twelve_has_number_three():
    cat = catalogue(12)
    numbers = sorted(AK.anti_kekule_number(M.PmIndex(g.adj_dict())).number
                     for g in cat.graphs)
    assert numbers == [3, 4]


def test_min_sets_all_verify():
    cat = catalogue(12)
    nonempty = 0
    for g in cat.graphs:
        sets3 = min_anti_kekule_sets(g, 3)
        nonempty += bool(sets3)
        for witness in sets3:
            assert is_anti_kekule_set(g, witness)
    assert nonempty == 1  # exactly the sporadic exception at this size


def test_size_zero_is_never_anti_kekule(cube):
    assert min_anti_kekule_sets(cube, 0) == []


def test_masks_agree_with_definition(cube):
    """Sizes 1-3 against the definition on the cube, every catalogue graph
    with n <= 12, the one-layer tube and two graphs that are not
    3-edge-connected, where a set hitting every perfect matching can
    disconnect the graph."""
    graphs = [cube, *(g for n in (8, 10, 12) for g in catalogue(n).graphs),
              F.build_tube(1)[0], two_blocks_joined_by_two_edges(), two_blocks_joined_by_a_bridge()]
    disconnecting = 0
    for g in graphs:
        adj = M.adjacency_of(g)
        for size in (1, 2, 3):
            direct = []
            for combo in itertools.combinations(M.edges_of(adj), size):
                if is_anti_kekule_set(adj, combo):
                    direct.append(frozenset(combo))
                elif not M.has_perfect_matching(without_edges(adj, combo)):
                    disconnecting += 1
            assert direct == min_anti_kekule_sets(g, size)
    assert disconnecting > 0
