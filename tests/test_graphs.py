import random
from collections import Counter

import pytest

from fullex import graphs as G
from fullex.families import build_tube

from conftest import (aligned_embedding_map, backtracking_isomorphic, bfs_girth, catalogue,
                      cube_graph, dodecahedron_graph, exhaustive_connectivity,
                      exhaustive_cyclic_cut_leq3, exhaustive_edge_cuts, has_cycle, k4_graph,
                      plain_code_sweep, relabel_rotation, relabelled_mirror, rotation_code,
                      scanned_short_cycles, triangulations, two_blocks_joined_by_a_bridge,
                      two_blocks_joined_by_two_edges)
from conftest import is_chiral as oracle_is_chiral


def test_cube_construction(cube):
    assert cube.n == 8
    assert cube.m == 12
    inv = G.faces(cube)
    assert len(inv.faces) == 6
    assert (inv.p4, inv.p5, inv.p6) == (6, 0, 0)


def test_k4_is_plane_cubic_but_not_fullerene(k4):
    assert len(G.faces(k4).faces) == 4
    with pytest.raises(G.BadFaceSize) as err:
        G.validate_fullerene(k4)
    assert err.value.size == 3


def test_dodecahedron_faces(dodecahedron):
    inv = G.validate_fullerene(dodecahedron)
    assert (inv.p4, inv.p5, inv.p6) == (0, 12, 0)


def test_validate_fullerene_face_identity(cube):
    inv = G.validate_fullerene(cube)
    assert 2 * inv.p4 + inv.p5 == 12


def test_construction_errors():
    with pytest.raises(G.NotCubic):
        G.from_rotation(4, [(1, 2), (0, 2), (0, 1), (0, 1, 2)])
    with pytest.raises(G.SelfLoopOrMultiEdge):
        G.from_rotation(4, [(1, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 0)])
    with pytest.raises(G.SelfLoopOrMultiEdge):
        G.from_rotation(4, [(0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 0)])
    with pytest.raises(G.NotSymmetric):
        # vertex 5 lists 1 instead of 4: edge 4->5 has no reverse
        G.from_rotation(6, [(1, 2, 3), (2, 0, 4), (0, 1, 5),
                            (0, 4, 5), (1, 3, 5), (2, 3, 1)])


def test_two_spheres_rejected(cube):
    # disjoint union of two cubes has Euler characteristic 4, not 2
    rot = list(cube.rot) + [tuple(w + 8 for w in r) for r in cube.rot]
    with pytest.raises(G.NotSpherical):
        G.from_rotation(16, rot)


def test_sphere_and_torus_rejected(cube):
    # a cube and a K3,3 embedded on the torus with three hexagons: Euler
    # characteristics 2 + 0 = 2, yet the rotation system is not connected
    k33 = [(3, 4, 5)] * 3 + [(0, 1, 2)] * 3
    rot = list(cube.rot) + [tuple(w + 8 for w in r) for r in k33]
    with pytest.raises(G.NotSpherical):
        G.from_rotation(14, rot)


def test_face_tracing_covers_every_directed_edge(cube, dodecahedron):
    for g in (cube, dodecahedron):
        darts = [(v, w) for v in range(g.n) for w in g.rot[v]]
        traced = [(f[i - 1], f[i]) for f in G.faces(g).faces for i in range(len(f))]
        assert sorted(darts) == sorted(traced)
        assert g.n - g.m + len(G.faces(g).faces) == 2


def test_canonical_code_relabeling_invariance(cube, dodecahedron):
    rng = random.Random(7)
    for g in (cube, dodecahedron):
        code = G.canonical_code(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            rot = [()] * g.n
            for v in range(g.n):
                rot[perm[v]] = tuple(perm[w] for w in g.rot[v])
            h = G.from_rotation(g.n, rot)
            assert G.canonical_code(h) == code


def test_canonical_code_distinguishes(cube):
    t1 = catalogue(12)
    assert len({G.canonical_code(g) for g in t1.graphs}) == t1.size


def test_is_isomorphic_matches_backtracking_oracle():
    pool = list(catalogue(12).graphs) + list(catalogue(14).graphs)
    for i, g1 in enumerate(pool):
        for g2 in pool[i:]:
            assert (G.canonical_code(g1) == G.canonical_code(g2)) == backtracking_isomorphic(g1, g2)


def test_mirror_images_identified():
    # a chiral fullerene and its mirror are distinct embeddings, one graph
    chirals = [g for g in catalogue(16).graphs if G.is_chiral(g)]
    assert chirals, "expected a chiral fullerene on 16 vertices"
    g = chirals[0]
    mirror = G.from_rotation(g.n, tuple(tuple(reversed(r)) for r in g.rot))
    assert G.canonical_code(g) == G.canonical_code(mirror)
    assert not G.is_chiral(cube_graph())


def test_chirality_from_the_canonical_sweep_is_the_two_sweep_definition():
    rng = random.Random(13)
    pool = [g for n in range(8, 21, 2) for g in catalogue(n).graphs]
    pool += [build_tube(layers)[0] for layers in range(1, 6)]
    chiral = 0
    for g in pool:
        want = oracle_is_chiral(g)
        chiral += want
        relabelled = G.from_rotation(g.n, relabel_rotation(g.rot, rng, False))
        for h in (g, relabelled, relabelled_mirror(g, rng)):
            assert G.is_chiral(h) == want
            assert G.is_chiral(G.from_code(G.canonical_code(h))) == want
    assert 0 < chiral < len(pool)


def test_canonical_form_is_shared_by_relabelled_mirrors():
    rng = random.Random(11)
    for g in catalogue(16).graphs:
        code = G.canonical_code(g)
        form = G.from_code(code)
        assert rotation_code(form.n, form.rot) == code  # recomputed, not cached
        assert g.rot == form.rot  # a catalogue member is its canonical form
        for mirror in (False, True):
            perm = rng.sample(range(g.n), g.n)
            rot = [()] * g.n
            for v in range(g.n):
                r = tuple(perm[w] for w in g.rot[v])
                rot[perm[v]] = r[::-1] if mirror else r
            h = G.from_rotation(g.n, rot)
            assert G.from_code(G.canonical_code(h)).rot == form.rot


def test_pruned_sweep_is_the_plain_sweep():
    """Skipping roots by automorphisms keeps (code, chiral, labelling): the
    first root to emit the least code is never skipped.  Every catalogue
    graph with n <= 20 with a relabelled and a relabelled mirrored copy,
    the tubes of 1-6 layers and every triangulation on at most 9 vertices
    (not cubic, so darts are numbered by degree offsets)."""
    rng = random.Random(21)
    rots = [g.rot for n in range(8, 21, 2) for g in catalogue(n).graphs]
    rots = [r for rot in rots for r in
            (rot, relabel_rotation(rot, rng, False), relabel_rotation(rot, rng, True))]
    rots += [build_tube(layers)[0].rot for layers in range(1, 7)]
    rots += [rot for v in range(4, 10) for rot in triangulations(v)]
    for rot in rots:
        assert G._code_sweep(len(rot), rot) == plain_code_sweep(len(rot), rot)


def test_sweep_skips_the_roots_automorphisms_cover(monkeypatch):
    """The 4-layer tube has 192 roots; its automorphisms leave 34 to sweep."""
    calls = []
    bfs = G._bfs_code
    monkeypatch.setattr(G, "_bfs_code", lambda *a: calls.append(a) or bfs(*a))
    g = build_tube(4)[0]
    pruned = G._code_sweep(g.n, g.rot)
    assert len(calls) == 34
    calls.clear()
    assert plain_code_sweep(g.n, g.rot) == pruned
    assert len(calls) == 192


def test_embedding_map_transports_adjacency(cube):
    rng = random.Random(3)
    perm = list(range(8))
    rng.shuffle(perm)
    rot = [()] * 8
    for v in range(8):
        rot[perm[v]] = tuple(perm[w] for w in cube.rot[v])
    h = G.from_rotation(8, rot)
    phi = G.embedding_map(cube, h)
    assert phi is not None
    for v in range(8):
        assert {phi[w] for w in cube.adj[v]} == h.adj[phi[v]]


def test_embedding_map_is_the_aligned_walk_map():
    """The map read off equal BFS codes is the one the step-by-step
    alignment finds: every catalogue graph with n <= 20 and the tubes of
    1-6 layers, each onto itself and onto a relabelled copy, plain and
    mirrored."""
    rng = random.Random(12)
    graphs = [g for n in range(8, 21, 2) for g in catalogue(n).graphs]
    graphs += [build_tube(layers)[0] for layers in range(1, 7)]
    for g in graphs:
        for h in [g] + [G.from_rotation(g.n, relabel_rotation(g.rot, rng, mirror))
                        for mirror in (False, True)]:
            phi = G.embedding_map(g, h)
            assert phi is not None
            assert phi == aligned_embedding_map(g, h)


def test_sweep_labelling_emits_the_code_and_maps_faces_onto_faces():
    """The sweep's labelling is a root's label order: the BFS from order[0]
    to order[1], in one of the two orientations, emits the code with that
    order.  The map `embedding_map` reads off two labellings carries every
    face onto a face, as edge sets: every catalogue graph with n <= 20 and
    the tubes of 1-6 layers, each onto a relabelled copy, plain and mirrored."""
    rng = random.Random(24)
    graphs = [g for n in range(8, 21, 2) for g in catalogue(n).graphs]
    graphs += [build_tube(layers)[0] for layers in range(1, 7)]

    def face_edges(g, phi):
        return {frozenset(G.norm_edge(phi[f[i - 1]], phi[f[i]]) for i in range(len(f)))
                for f in G.faces(g).faces}

    for g in graphs:
        for mirror in (False, True):
            h = G.from_rotation(g.n, relabel_rotation(g.rot, rng, mirror))
            code, _, order = G._code_sweep(h.n, h.rot)
            emitted = [G._bfs_code(h.n, rr, order[0], order[1], None)
                       for rr in (h.rot, tuple(r[::-1] for r in h.rot))]
            assert (list(code), order) in emitted
            assert face_edges(g, G.embedding_map(g, h)) == face_edges(h, range(h.n))


def test_embedding_map_of_non_isomorphic_pair_is_none():
    g, h = catalogue(12).graphs
    assert G.embedding_map(g, h) is None
    assert aligned_embedding_map(g, h) is None


def test_connectivity(cube, dodecahedron, k4):
    def connectivity(g):
        return G.connectivity(G.edge_cuts_up_to(g, 3))

    assert connectivity(cube) == 3
    assert connectivity(dodecahedron) == 3
    assert connectivity(k4) == 3
    assert connectivity(two_blocks_joined_by_two_edges()) == 2
    assert connectivity(two_blocks_joined_by_a_bridge()) == 1


def test_girth(cube, dodecahedron, k4):
    assert G.girth(k4) == 3
    assert G.girth(cube) == 4
    assert G.girth(dodecahedron) == 5


def test_short_cycles_facial(cube, dodecahedron, k4):
    assert G.short_cycles_facial(cube)
    assert G.short_cycles_facial(dodecahedron)
    # each of these has a 4-cycle that bounds no face
    assert not G.short_cycles_facial(k4)
    assert not G.short_cycles_facial(two_blocks_joined_by_two_edges())
    assert not G.short_cycles_facial(two_blocks_joined_by_a_bridge())


def test_cube_has_exactly_six_four_cycles(cube):
    lengths = [len(c) for c in G._short_cycles(cube)]
    assert lengths.count(4) == 6
    assert lengths.count(5) == 0


def test_short_cycles_by_length(cube, dodecahedron, k4):
    cases = ((k4, {3: 4, 4: 3}), (cube, {4: 6}), (dodecahedron, {5: 12}),
             (two_blocks_joined_by_two_edges(), {3: 4, 4: 2}),
             (two_blocks_joined_by_a_bridge(), {3: 4, 4: 6, 5: 4}))
    for g, counts in cases:
        assert Counter(map(len, G._short_cycles(g))) == counts


def test_edge_cuts_cube(cube):
    cuts = G.edge_cuts_up_to(cube, 3)
    assert len(cuts) == 8
    assert all(c.trivial for c in cuts)
    assert all(len(c.edges) == 3 for c in cuts)
    for _, sides in exhaustive_edge_cuts(cube, 3):
        small = min(sides, key=len)
        assert len(small) == 1


def _cut_test_graphs():
    """Every catalogue graph with n <= 16, tubes of 1-3 layers, two plane
    cubic graphs that are not 3-connected, K4, and a seeded relabelled
    mirror copy of each."""
    rng = random.Random(5)
    graphs = [g for n in range(8, 17, 2) for g in catalogue(n).graphs]
    graphs += [build_tube(layers)[0] for layers in (1, 2, 3)]
    graphs += [two_blocks_joined_by_two_edges(), two_blocks_joined_by_a_bridge(),
               k4_graph()]
    graphs += [relabelled_mirror(g, rng) for g in graphs]
    return graphs


def _four_cut_graphs():
    """Graphs whose cuts of size <= 4 are checked against the exhaustive scan."""
    return (cube_graph(), dodecahedron_graph(), build_tube(1)[0],
            two_blocks_joined_by_two_edges(), two_blocks_joined_by_a_bridge())


def test_edge_cuts_are_the_exhaustive_scan():
    for g in _cut_test_graphs():
        assert G.edge_cuts_up_to(g, 3) == [cut for cut, _ in exhaustive_edge_cuts(g, 3)]


def test_short_cycles_are_the_subset_scan():
    for g in _cut_test_graphs() + [dodecahedron_graph()]:
        assert G._short_cycles(g) == scanned_short_cycles(g)


def test_connectivity_girth_and_cyclic_cut_are_the_exhaustive_scans():
    for g in _cut_test_graphs():
        cuts = G.edge_cuts_up_to(g, 3)
        assert G.connectivity(cuts) == exhaustive_connectivity(g)
        assert G.girth(g) == bfs_girth(g)
        assert G.has_cyclic_cut_leq3(cuts) == exhaustive_cyclic_cut_leq3(g)


def test_edge_cuts_of_size_four_are_the_exhaustive_scan():
    for g in _four_cut_graphs():
        assert G.edge_cuts_up_to(g, 4) == [cut for cut, _ in exhaustive_edge_cuts(g, 4)]


def test_a_cut_side_holds_a_cycle_iff_it_has_as_many_vertices_as_the_cut_edges():
    """The counting rule behind `EdgeCut.trivial` and `has_cyclic_cut_leq3`,
    on the exhaustive scan's sides: a side S of a minimal c-edge cut spans
    (3|S| - c)/2 edges, so it holds a cycle iff |S| >= c, and a cut is
    trivial iff a side is one vertex."""
    cases = [(g, 3) for g in _cut_test_graphs()] + [(g, 4) for g in _four_cut_graphs()]
    cyclic_seen, trivial_seen = set(), set()
    for g, k in cases:
        adj = g.adj_dict()
        for cut, sides in exhaustive_edge_cuts(g, k):
            for side in sides:
                cyclic = has_cycle(side, adj)
                assert cyclic == (len(side) >= len(cut.edges))
                cyclic_seen.add(cyclic)
            assert cut.trivial == (min(map(len, sides)) == 1)
            trivial_seen.add(cut.trivial)
    assert cyclic_seen == trivial_seen == {False, True}


def test_bridge_and_two_edge_cuts_are_found():
    g = two_blocks_joined_by_a_bridge()
    bridge = G.edge_cuts_up_to(g, 1)
    assert [sorted(c.edges) for c in bridge] == [[(4, 9)]]
    assert [sides for _, sides in exhaustive_edge_cuts(g, 1)] == [
        (frozenset(range(5)), frozenset(range(5, 10)))]
    assert G.edge_cuts_up_to(g, 0) == []
    pair = G.edge_cuts_up_to(two_blocks_joined_by_two_edges(), 2)
    assert [sorted(c.edges) for c in pair] == [[(0, 4), (1, 5)]]


def test_edge_cut_cap():
    with pytest.raises(ValueError):
        G.edge_cuts_up_to(cube_graph(), 5)


def test_no_cyclic_cut_in_cube_or_dodecahedron(cube, dodecahedron):
    assert not G.has_cyclic_cut_leq3(G.edge_cuts_up_to(cube, 3))
    assert not G.has_cyclic_cut_leq3(G.edge_cuts_up_to(dodecahedron, 3))
