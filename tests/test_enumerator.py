import random

import pytest

from fullex import cli
from fullex import enumerator as EN
from fullex import graphs as G
from fullex.families import build_tube

from conftest import (canonical_codes, catalogue, catalogues, embedding_automorphisms,
                      keyset_children, relabel_rotation, rotation_code,
                      split_children, tri_key, triangulations)


# simple sphere triangulations per vertex count (simplicial polyhedra)
TRIANGULATION_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233,
                        11: 1249}


def _defect(rot):
    return sum(max(4 - len(r), 0, len(r) - 6) for r in rot)


def _codes(v, rots):
    return {rotation_code(v, rot) for rot in rots}


def _is_triangulation(n, rot):
    walks = G._trace_faces(n, rot)
    m = sum(len(r) for r in rot) // 2
    return all(len(w) == 3 for w in walks) and n - m + len(walks) == 2


def test_triangulation_counts():
    for v, want in TRIANGULATION_COUNTS.items():
        tris = triangulations(v)
        assert len(tris) == want
        for rot in tris:
            assert _is_triangulation(v, rot)
            assert all(len(set(r)) == len(r) for r in rot)  # simple


def _separates_as_rotation_code(key_of, seed):
    """key_of(v, rot) separates the split children on v <= 9 vertices, and
    a relabelled and a mirrored copy of each, exactly as `rotation_code`."""
    rng = random.Random(seed)
    for v in range(5, 10):
        key_of_code, code_of_key = {}, {}
        for child in split_children(v):
            for rot in (child, relabel_rotation(child, rng, False),
                        relabel_rotation(child, rng, True)):
                key = key_of(v, rot)
                code = rotation_code(v, rot)
                assert key_of_code.setdefault(code, key) == key
                assert code_of_key.setdefault(key, code) == code
        assert len(key_of_code) == TRIANGULATION_COUNTS[v]


def test_tri_key_separates_exactly_as_rotation_code():
    _separates_as_rotation_code(tri_key, 5)


def _augmentation_key(v, rot):
    """The one key that the canonical edges of rot give; there are some."""
    found = [EN._canonical_key(v, rot, x, y)
             for x, r in enumerate(rot) for y in r if x < y]
    keys = {f[0] for f in found if f is not None}
    assert len(keys) == 1
    return keys.pop()


def test_canonical_key_separates_exactly_as_rotation_code():
    _separates_as_rotation_code(_augmentation_key, 7)


def test_each_class_is_accepted_once_from_one_parent():
    """Level by level, for walks to v_max <= 11, `_children` (one split per
    orbit of the parent's group, kept when its new edge is canonical)
    yields every class on v vertices with defect <= 4 (v_max - v) exactly
    once, and from one parent."""
    for v_max in range(5, 12):
        level = [(EN._K4_ROT, EN._K4_GROUP)]
        for n in range(4, v_max):
            slack = 4 * (v_max - n - 1)
            parents: dict[bytes, list[int]] = {}
            children = []
            for i, (rot, group) in enumerate(level):
                for child, child_group in EN._children(n, rot, slack, group):
                    parents.setdefault(rotation_code(n + 1, child), []).append(i)
                    children.append((child, child_group))
            assert all(len(p) == 1 for p in parents.values())
            want = [rot for rot in triangulations(n + 1) if _defect(rot) <= slack]
            assert set(parents) == _codes(n + 1, want)
            level = children


def test_canonical_key_returns_the_automorphism_group():
    """For every class on 4..9 vertices and each canonical edge, the group
    is exactly the vertex maps carrying the embedding onto itself or its
    mirror, by brute force over every dart in both orientations."""
    checked = 0
    for v in range(4, 10):
        for rot in triangulations(v):
            want = embedding_automorphisms(v, rot)
            for x, y in ((x, y) for x, r in enumerate(rot) for y in r if x < y):
                found = EN._canonical_key(v, rot, x, y)
                if found is not None:
                    assert len(found[1]) == len(want)
                    assert set(found[1]) == want
                    checked += 1
    assert checked >= 73  # at least one canonical edge per class
    assert len(EN._K4_GROUP) == 24
    assert set(EN._K4_GROUP) == embedding_automorphisms(4, EN._K4_ROT)


def test_one_split_per_orbit_keeps_the_key_set_children(monkeypatch):
    """For every class on v <= 10 vertices at slack 4 (11 - v'), `_children`
    yields the children of the per-parent key set (`keyset_children`), in
    the same order.  The walk to v_max 10 makes 121 `_canonical_key` calls,
    against 486 with the key set: testing symmetric splits again fails."""
    for v in range(4, 11):
        for rot in triangulations(v):
            group = sorted(embedding_automorphisms(v, rot))
            slack = 4 * (11 - v - 1)
            orbits = [child for child, _ in EN._children(v, rot, slack, group)]
            assert orbits == list(keyset_children(v, rot, slack))
    calls = []
    key = EN._canonical_key
    monkeypatch.setattr(EN, "_canonical_key", lambda *a: calls.append(a) or key(*a))
    for _ in EN._walk(10):
        pass
    assert len(calls) == 121

    def grow(n, rot):
        for child in keyset_children(n, rot, 2 * (10 - n - 1)) if n < 10 else ():
            grow(n + 1, child)

    calls.clear()
    grow(4, EN._K4_ROT)
    assert len(calls) == 486


def test_contraction_raises_defect_by_at_most_four():
    """The walk's lemma on all 29 444 splits of the triangulations on
    v <= 10 vertices, each parent being the contraction of its child's new
    edge; the bound is reached."""
    rises = []
    for n in range(4, 11):
        for parent in triangulations(n):
            d = _defect(parent)
            for w in range(n):
                k = len(parent[w])
                for a in range(k):
                    for b in range(a + 1, k):
                        child = EN._split_vertex(n, parent, w, a, b)
                        rises.append(d - _defect(child))
    assert len(rises) == 29444
    assert max(rises) == 4


def _least_contractible_sum(v, rot):
    nbrs = [set(r) for r in rot]
    return min(len(rot[y]) + len(rot[z]) for y in range(v) for z in rot[y]
               if y < z and len(nbrs[y] & nbrs[z]) == 2)


def test_canonical_contraction_raises_defect_by_at_most_two():
    """`_walk`'s lemma on the 4 144 of those splits whose new edge has the
    least degree sum among the child's contractible edges: the rise is at
    most 2, reached only for children on 5 and 6 vertices."""
    rises: dict[int, list[int]] = {}
    for n in range(4, 11):
        for parent in triangulations(n):
            d = _defect(parent)
            for w in range(n):
                k = len(parent[w])
                for a in range(k):
                    for b in range(a + 1, k):
                        child = EN._split_vertex(n, parent, w, a, b)
                        if (len(child[w]) + len(child[n])
                                == _least_contractible_sum(n + 1, child)):
                            rises.setdefault(n + 1, []).append(d - _defect(child))
    assert sum(map(len, rises.values())) == 4144
    assert {v: max(r) for v, r in rises.items()} == {
        5: 2, 6: 2, 7: 1, 8: 0, 9: 1, 10: 1, 11: 1}


def test_walk_leaves_are_the_filtered_levels():
    for v_max in range(5, 12):
        seen = []
        for v, leaves in EN._walk(v_max):
            seen.append(v)
            full = [rot for rot in triangulations(v)
                    if all(4 <= len(r) <= 6 for r in rot)]
            assert len(leaves) == len(full)
            assert _codes(v, leaves) == _codes(v, full)
        assert seen == list(range(4, v_max + 1))


def test_dualize_octahedron_gives_cube(cube):
    octa = [rot for rot in triangulations(6)
            if all(len(r) == 4 for r in rot)]
    assert len(octa) == 1
    dual = G.from_rotation(8, EN._dualize(6, octa[0]))
    assert G.canonical_code(dual) == G.canonical_code(cube)


def test_a_class_emitted_twice_is_an_internal_error(monkeypatch, tmp_path):
    walk = EN._walk

    def repeating(v_max):
        for v, leaves in walk(v_max):
            yield v, leaves + leaves[:1]

    monkeypatch.setattr(EN, "_walk", repeating)
    with pytest.raises(RuntimeError, match="emitted twice"):
        EN.enumerate_fullerenes(8)
    assert cli.main(["enumerate", "8", "--outdir", str(tmp_path)]) == 3


def test_enumerate_eight_is_cube(cube):
    cat = EN.enumerate_fullerenes(8)
    assert cat.size == 1
    assert G.canonical_code(cat.graphs[0]) == G.canonical_code(cube)


def test_catalogue_members_are_valid_and_sorted():
    for n in (10, 12, 14):
        cat = catalogue(n)
        codes = canonical_codes(cat)
        assert codes == sorted(codes)
        assert len(set(codes)) == cat.size
        for g in cat.graphs:
            inv = G.validate_fullerene(g)
            assert 2 * inv.p4 + inv.p5 == 12
            assert g.n == n


def test_catalogue_members_carry_their_sweep():
    """A member built from its code is labelled by that code: the sweep it
    carries, labelling 0..n-1 included, is the one a fresh sweep makes, for
    every member with n <= 24."""
    members = [g for cat in catalogues(24).values() for g in cat.graphs]
    for g in members:
        code, chiral, order = g._sweep
        assert (code, chiral, list(order)) == G._code_sweep(g.n, g.rot)
    assert len(members) == 139


def test_counts_histogram_consistent():
    cat = catalogue(14)
    assert sum(cat.counts.values()) == cat.size
    for (p4, p5, p6), _ in cat.counts.items():
        assert 2 * p4 + p5 == 12


def test_tubes_appear_in_catalogue():
    for layers in (1, 2):
        g, _ = build_tube(layers)
        cat = catalogue(g.n)
        assert any(G.canonical_code(g) == G.canonical_code(h) for h in cat.graphs)


def test_twenty_vertex_members_pairwise_distinct():
    from conftest import backtracking_isomorphic
    cat = catalogue(20)
    a, b = cat.graphs[0], cat.graphs[1]
    assert G.canonical_code(a) != G.canonical_code(b)
    assert not backtracking_isomorphic(a, b)


def test_naive_agrees_with_fast_small():
    for n in (8, 10):
        fast = EN.enumerate_fullerenes(n)
        naive = catalogue(n, naive=True)
        assert set(canonical_codes(fast)) == set(canonical_codes(naive))


def test_fast_and_naive_members_are_identical():
    for n in (8, 10, 12):
        fast = catalogue(n)
        naive = catalogue(n, naive=True)
        assert [g.rot for g in fast.graphs] == [g.rot for g in naive.graphs]
        assert canonical_codes(fast) == canonical_codes(naive)


def test_bounds_and_parity():
    with pytest.raises(EN.OddVertexCount):
        EN.enumerate_fullerenes(9)
    with pytest.raises(EN.BoundExceeded):
        EN.enumerate_fullerenes(6)
    with pytest.raises(EN.BoundExceeded):
        EN.enumerate_fullerenes(26)


def test_env_override(monkeypatch):
    monkeypatch.setenv("FULLEX_NMAX", "12")
    assert EN.configured_bound() == 12
    with pytest.raises(EN.BoundExceeded):
        EN.enumerate_fullerenes(14)
    monkeypatch.setenv("FULLEX_NMAX", "abc")
    with pytest.raises(EN.EnumerationError):
        EN.configured_bound()
    monkeypatch.delenv("FULLEX_NMAX")
    assert EN.configured_bound() == EN.DEFAULT_BOUND


def test_determinism():
    first = EN.enumerate_fullerenes(10)
    second = EN.enumerate_fullerenes(10)
    assert canonical_codes(first) == canonical_codes(second)
    assert [g.rot for g in first.graphs] == [g.rot for g in second.graphs]
    # a walk to n = 20 yields the same members on its way
    assert [g.rot for g in first.graphs] == [g.rot for g in catalogue(10).graphs]


def _rotation_of(n, triangles):
    """The rotation system whose faces are the given oriented triangles."""
    succ = [{} for _ in range(n)]
    for x, y, z in triangles:
        succ[y][x], succ[z][y], succ[x][z] = z, x, y
    rot = []
    for s in succ:
        cycle = [min(s)]
        while s[cycle[-1]] != cycle[0]:
            cycle.append(s[cycle[-1]])
        rot.append(tuple(cycle))
    return tuple(rot)


def _quartered(n, rot):
    """Each triangle cut into four at its edge midpoints: the old vertices
    keep their degrees, the midpoints get degree 6, and no two old
    vertices stay adjacent."""
    mid = {}
    for u in range(n):
        for v in rot[u]:
            mid.setdefault(frozenset((u, v)), n + len(mid))
    tris = []
    for x, y, z in G._trace_faces(n, rot):
        a, b, c = (mid[frozenset(e)] for e in ((x, y), (y, z), (z, x)))
        tris += [(x, a, c), (y, b, a), (z, c, b), (a, b, c)]
    return n + len(mid), _rotation_of(n + len(mid), tris)


def _contracted(n, rot, u, v):
    """rot with the contractible edge uv contracted onto u."""
    label = {x: i for i, x in enumerate(x for x in range(n) if x != v)}
    label[v] = label[u]
    tris = [tuple(label[x] for x in t) for t in G._trace_faces(n, rot)
            if not {u, v} <= set(t)]
    return n - 1, _rotation_of(n - 1, tris)


def _contractions(n, rot):
    """rot with each of its contractible edges contracted."""
    nbrs = [set(r) for r in rot]
    return [_contracted(n, rot, u, v)[1] for u in range(n) for v in rot[u]
            if u < v and len(nbrs[u] & nbrs[v]) == 2]


def test_no_constant_defect_bound_is_closed_under_contraction():
    """Why `_walk` bounds the defect by v_max - v', not by a constant.
    delta = 0 is not closed: one of the 4 classes on 9 vertices with all
    degrees in {4, 5, 6} has no contraction that keeps them there.  Nor
    is delta <= 1: quartering the icosahedron, contracting one edge at a
    degree-5 vertex and quartering again gives 158 vertices with degrees
    5^13 6^144 7^1, no two of the 5s and the 7 adjacent, and every edge
    contractible; every contraction leaves delta >= 2, a second vertex of
    degree 7 or one of degree at least 8."""
    zero = [rot for rot in triangulations(9) if _defect(rot) == 0]
    assert len(zero) == 4
    assert sum(min(map(_defect, _contractions(9, rot))) > 0
               for rot in zero) == 1

    ico = next(rot for v, rots in EN._walk(12) if v == 12 for rot in rots
               if all(len(r) == 5 for r in rot))
    n, rot = _quartered(12, ico)
    n, rot = _contracted(n, rot, 0, rot[0][0])
    n, rot = _quartered(n, rot)
    assert n == 158 and _is_triangulation(n, rot)
    degrees = sorted(len(r) for r in rot)
    assert degrees == [5] * 13 + [6] * 144 + [7]
    assert _defect(rot) == 1
    assert all(len(rot[y]) == 6 for x in range(n) if len(rot[x]) != 6
               for y in rot[x])
    contractions = _contractions(n, rot)
    assert len(contractions) == sum(degrees) // 2
    assert min(map(_defect, contractions)) == 2
