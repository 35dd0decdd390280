import hashlib
import itertools
import random

import pytest

from fullex import families as F
from fullex import graphs as G
from fullex import harness
from fullex import matching as M
from fullex import planar_code as PC

from conftest import (aligned_embedding_map, catalogue, relabel_rotation, relabelled_mirror,
                      sporadic, witness_pair, without_edges)


def test_build_tube_validates():
    for n in range(1, 7):
        g, desc = F.build_tube(n)
        inv = G.validate_fullerene(g)
        assert (inv.p4, inv.p5) == (6, 0)
        assert g.n == 6 * n + 8
        assert g.n == 2 * (len(G.faces(g).faces) - 2)  # Euler: n = 2(f-2) for cubic
        assert desc.n_layers == n


def test_tube_bytes_are_pinned():
    """planar_code of every tube that one-byte planar_code holds (1..41
    layers, up to 254 vertices), labels and orientation included."""
    data = b"".join(PC.encode_graph(F.build_tube(layers)[0]) for layers in range(1, 42))
    assert hashlib.sha256(data).hexdigest() == (
        "2231effecfe7f1f6de0fec5bc9d7089ff965faf5c25db7f4d9769a0324a20364")


def test_build_tube_bad_layer_count():
    with pytest.raises(F.BadLayerCount):
        F.build_tube(0)


def test_descriptor_structure():
    g, desc = F.build_tube(3)
    assert len(desc.concentric_cycles) == 4
    assert len(desc.traversed_edges) == 3
    def edge_set(walk):
        return frozenset(G.norm_edge(a, b) for a, b in zip(walk, walk[1:] + walk[:1]))

    facial = {edge_set(f) for f in G.faces(g).faces}
    seen = set()
    for cyc in desc.concentric_cycles:
        assert len(cyc) == 6
        for i, v in enumerate(cyc):
            assert cyc[(i + 1) % 6] in g.adj[v]
        assert edge_set(cyc) not in facial  # concentric, never a face
    for layer in desc.traversed_edges:
        assert len(layer) == 3
        assert not (layer & seen)
        seen |= layer
    # each cap star: three edges from a centre to the innermost or outermost cycle
    ends = (desc.concentric_cycles[0], desc.concentric_cycles[-1])
    for c, cyc in zip(desc.cap_centers, ends):
        assert len(g.adj[c]) == 3 and g.adj[c] < set(cyc)


def test_traversed_layers_are_cyclic_three_cuts():
    """Each layer leaves two sides that keep a cycle, and is a nontrivial
    minimal cut of <= 3 edges, the form the report's tube cut claim reads."""
    for layers in range(1, 7):
        g, desc = F.build_tube(layers)
        adj = M.adjacency_of(g)
        nontrivial = [c.edges for c in G.edge_cuts_up_to(g, 3) if not c.trivial]
        for layer in desc.traversed_edges:
            left = without_edges(adj, layer)
            comps = M.components(left)
            assert len(comps) == 2
            for comp in comps:
                edges_inside = sum(1 for v in comp for w in left[v] if w in comp) // 2
                assert edges_inside >= len(comp)  # both sides keep a cycle
            assert layer in nontrivial


def test_tube_has_cyclic_cut(cube):
    assert G.has_cyclic_cut_leq3(G.edge_cuts_up_to(F.build_tube(1)[0], 3))
    assert not G.has_cyclic_cut_leq3(G.edge_cuts_up_to(cube, 3))


def test_recognize_round_trip():
    for n in range(1, 7):
        g, _ = F.build_tube(n)
        desc = F.recognize_tube(g)
        assert desc is not None
        assert desc.n_layers == n
        # descriptor rebuilt on g must describe g itself
        for layer in desc.traversed_edges:
            for u, v in layer:
                assert v in g.adj[u]


def test_recognize_rejects_non_tubes(cube, dodecahedron):
    assert F.recognize_tube(cube) is None
    assert F.recognize_tube(dodecahedron) is None
    for g in catalogue(12).graphs:
        assert F.recognize_tube(g) is None


def test_recognize_relabeled_tube():
    import random
    g, _ = F.build_tube(2)
    rng = random.Random(9)
    perm = list(range(g.n))
    rng.shuffle(perm)
    rot = [()] * g.n
    for v in range(g.n):
        rot[perm[v]] = tuple(perm[w] for w in g.rot[v])
    h = G.from_rotation(g.n, rot)
    desc = F.recognize_tube(h)
    assert desc is not None
    assert desc.n_layers == 2
    assert sorted(desc.cap_centers) == sorted(
        perm[c] for c in F.build_tube(2)[1].cap_centers)


def test_recognize_tube_sweeps_only_its_input(monkeypatch):
    """recognize_tube reads no sweep but its input's: once that is cached,
    it makes no `_code_sweep` call, not even of the tube it builds."""
    built = F.build_tube(3)[0]
    g = relabelled_mirror(built, random.Random(8))
    G.canonical_code(g)

    def sweep(n, rot):
        raise AssertionError("recognize_tube made a sweep")

    monkeypatch.setattr(G, "_code_sweep", sweep)
    desc = F.recognize_tube(g)
    assert desc is not None and desc.n_layers == 3


def test_recognize_tube_same_under_aligned_walk(monkeypatch):
    """The descriptors found through `embedding_map` are those found through
    the step-by-step alignment oracle, on every catalogue graph with
    n <= 20 and on the tubes of 1-6 layers relabelled, plain and mirrored;
    each tube's cap centers are the vertices whose three faces are
    quadrilaterals."""
    rng = random.Random(5)
    graphs = [g for n in range(8, 21, 2) for g in catalogue(n).graphs]
    for layers in range(1, 7):
        g = F.build_tube(layers)[0]
        graphs += [G.from_rotation(g.n, relabel_rotation(g.rot, rng, mirror))
                   for mirror in (False, True)]
    found = [F.recognize_tube(g) for g in graphs]
    monkeypatch.setattr(F, "embedding_map", aligned_embedding_map)
    assert [F.recognize_tube(g) for g in graphs] == found
    # the catalogue's tubes at n = 14 and 20, and the twelve copies
    assert sum(d is not None for d in found) == 14
    for g, desc in zip(graphs, found):
        if desc is not None:
            quads = [v for f in G.faces(g).faces if len(f) == 4 for v in f]
            assert sorted(desc.cap_centers) == sorted(
                v for v in set(quads) if quads.count(v) == 3)


def test_pm_structure_small_tubes():
    for n in range(1, 7):  # every layer count the exhaustive check accepts
        g, desc = F.build_tube(n)
        rep = F.verify_tube_pm_structure(g, desc)
        assert rep.one_traversed_per_gap
        assert rep.one_star_edge_per_cap
        assert rep.every_layer_selection_unique
        assert rep.pm_count == 3 ** (n + 2)
        assert rep.count_matches_layer_product
        assert rep.selection_bijection_holds
        # spoke-only selections leave exactly the 3 x 3 cap completions
        count = M.PmIndex(g.adj_dict()).count
        gaps = [sorted(layer) for layer in desc.traversed_edges]
        assert {count(sel) for sel in itertools.product(*gaps)} == {9}


def test_pm_structure_on_recognised_tubes(monkeypatch):
    """The layer check holds on the relabelled mirrors of 1-4 layers that the
    tube suite recognises, with the cap stars read at the transported centres."""
    recognize = F.recognize_tube
    seen = []

    def spy(h):
        seen.append(h)
        return recognize(h)

    monkeypatch.setattr(F, "recognize_tube", spy)
    harness._tube_suite(32)
    assert [h.n for h in seen] == [14, 20, 26, 32]
    for h in seen:
        rep = F.verify_tube_pm_structure(h, recognize(h))
        assert rep.selection_bijection_holds
        assert rep.gap_pair_in_common_pm is None


@pytest.mark.parametrize("first_gap, has_pair", [
    ("cycle", True),   # three alternate edges of a concentric cycle
    ("short", False),  # misses the matchings through a traversed edge
    ("extra", True),   # a fourth edge, in matchings with a traversed one
])
def test_pm_structure_flags_a_wrong_gap_layer(monkeypatch, first_gap, has_pair):
    build = F.build_tube

    def wrong_first_gap(n_layers):
        g, desc = build(n_layers)
        cyc = desc.concentric_cycles[1]
        traversed = sorted(desc.traversed_edges[0])
        layer = {
            "cycle": [G.norm_edge(cyc[i], cyc[i + 1]) for i in (0, 2, 4)],
            "short": traversed[:2],
            "extra": traversed + [G.norm_edge(cyc[0], cyc[1])],
        }[first_gap]
        return g, desc._replace(
            traversed_edges=(frozenset(layer), *desc.traversed_edges[1:]))

    monkeypatch.setattr(F, "build_tube", wrong_first_gap)
    rep = F.verify_tube_pm_structure(*F.build_tube(2))
    assert not rep.one_traversed_per_gap
    assert not rep.selection_bijection_holds
    pair = rep.gap_pair_in_common_pm
    assert (pair is not None) == has_pair
    witness = harness._tube_suite(14)[1]
    if has_pair:
        assert M.extends_to_perfect(build(2)[0], pair)
        assert witness.failures == 2
        assert witness.counterexamples[-1]["pair"] == [list(e) for e in pair]
    else:
        assert witness.failures == 0


def test_pm_structure_bounds():
    with pytest.raises(F.BadLayerCount):  # 0 layers: build_tube refuses it
        F.verify_tube_pm_structure(*F.build_tube(7))


def test_sporadic_candidates_twelve():
    cands = sporadic(12)
    assert len(cands) == 1
    g, d = cands[0]
    assert d["ak_number"] == 3
    assert not M.extends_to_perfect(g, witness_pair(d))
    assert F.recognize_tube(g) is None


def test_sporadic_candidates_fourteen_excludes_tube():
    cands = sporadic(14)
    assert cands
    tube_code = G.canonical_code(F.build_tube(1)[0])
    assert all(G.canonical_code(g) != tube_code for g, _ in cands)


def test_tubes_have_anti_kekule_number_four():
    """Why the sporadic filter's "not a tube" clause decides nothing: the
    ak = 3 test already excludes every tube."""
    for layers in range(1, 7):
        assert harness.analyze_graph(F.build_tube(layers)[0])["ak_number"] == 4
