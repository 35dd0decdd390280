"""Property tests: generated inputs, a fixed example sequence.

``derandomize`` draws the same examples on every run and ``database=None``
keeps no example store, so the suite stays deterministic (``conftest``
keeps Hypothesis's source-constants cache out of the working tree).
"""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullex import antikekule as AK
from fullex import graphs as G
from fullex import matching as M
from fullex import planar_code as PC
from fullex.families import build_tube

from conftest import (brute_max_matching_size, brute_perfect_matchings, catalogue,
                      combination_anti_kekule_sets, cube_graph, dodecahedron_graph,
                      k4_graph, per_vertex_gallai_edmonds_d, relabelled_mirror)

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _records(n: int):
    """One planar_code record of n vertices with 0..4 neighbour bytes each,
    drawn from 1..n + 1, so that one value names no vertex."""
    vertex = st.lists(st.integers(1, n + 1), max_size=4).map(lambda r: bytes(r) + b"\0")
    return st.lists(vertex, min_size=n, max_size=n).map(
        lambda vs: bytes([n]) + b"".join(vs))


_VALID = [PC.HEADER + PC.encode_graph(g)
          for g in (k4_graph(), cube_graph(), dodecahedron_graph())]


def _mutated(data: bytes, pos: int, value: int) -> bytes:
    pos %= len(data)
    return data[:pos] + bytes([value]) + data[pos + 1:]


def _swapped(data: bytes, pos: int) -> bytes:
    """Two neighbouring bytes exchanged: within a vertex's record this
    reverses its rotation, which changes the face count."""
    pos %= len(data) - 1
    out = bytearray(data)
    out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return bytes(out)


planar_code_inputs = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda body: PC.HEADER + body),
    st.lists(st.integers(1, 10).flatmap(_records), max_size=3).map(
        lambda records: PC.HEADER + b"".join(records)),
    st.builds(_mutated, st.sampled_from(_VALID), st.integers(len(PC.HEADER), 200),
              st.integers(0, 255)),
    st.builds(_swapped, st.sampled_from(_VALID), st.integers(len(PC.HEADER), 200)),
)


@PROPERTY
@given(planar_code_inputs)
def test_arbitrary_bytes_raise_only_domain_errors(data):
    try:
        for g in PC.read_graphs(data):
            assert isinstance(g, G.PlaneCubicGraph)
    except (PC.PlanarCodeError, G.GraphError):
        pass


# graphs with and without symmetry, chiral ones among the n = 16 members
_GRAPHS = [k4_graph(), cube_graph(), build_tube(1)[0],
           *(g for n in (12, 14, 16) for g in catalogue(n).graphs)]


@st.composite
def relabellings(draw):
    """A graph from _GRAPHS, a permutation of its vertices and a mirror flag."""
    g = draw(st.sampled_from(_GRAPHS))
    return g, draw(st.permutations(range(g.n))), draw(st.booleans())


def _relabelled(g, perm, mirror):
    rot = [()] * g.n
    for v, nbrs in enumerate(g.rot):
        r = tuple(perm[w] for w in nbrs)
        rot[perm[v]] = r[::-1] if mirror else r
    return G.from_rotation(g.n, rot)


@PROPERTY
@given(relabellings())
def test_canonical_code_is_invariant_under_relabelling_and_mirroring(case):
    g, perm, mirror = case
    assert G.canonical_code(_relabelled(g, perm, mirror)) == G.canonical_code(g)


@PROPERTY
@given(relabellings())
def test_perfect_matchings_of_a_relabelled_copy_map_onto_the_originals(case):
    g, perm, mirror = case
    pms = list(M.perfect_matchings(_relabelled(g, perm, mirror)))
    assert pms == sorted(pms)
    back = {perm[v]: v for v in range(g.n)}
    mapped = [tuple(sorted(G.norm_edge(back[u], back[w]) for u, w in pm)) for pm in pms]
    assert sorted(mapped) == list(M.perfect_matchings(g))


@st.composite
def labelled_graphs(draw, max_vertices=8):
    """A simple graph on up to `max_vertices` distinct arbitrary int labels,
    each pair joined or not by a drawn flag, as an adjacency mapping."""
    labels = draw(st.lists(st.integers(-10**6, 10**6), max_size=max_vertices,
                           unique=True))
    pairs = list(itertools.combinations(labels, 2))
    joined = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in labels}
    for (u, v), edge in zip(pairs, joined):
        if edge:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@PROPERTY
@given(labelled_graphs())
def test_matchings_agree_with_brute_force(adj):
    assert len(M.maximum_matching(adj)) == brute_max_matching_size(adj)
    assert list(M.perfect_matchings(adj)) == sorted(brute_perfect_matchings(adj))


@PROPERTY
@given(labelled_graphs(12))
def test_gallai_edmonds_d_is_the_per_vertex_definition(adj):
    """Odd orders, isolated vertices and several components included."""
    adj = M.adjacency_of(adj)
    assert M._gallai_edmonds_d(adj) == per_vertex_gallai_edmonds_d(adj)


@PROPERTY
@given(labelled_graphs())
@example({})
@example({0: set()})
@example({0: {1, 2}, 1: {0, 2}, 2: {0, 1}})
@example({0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}})
@example({0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4, 5}, 4: {3, 5}, 5: {3, 4}, 6: set()})
def test_factor_critical_is_the_definition(adj):
    """G - v has a perfect matching for every vertex v, by brute force; empty,
    odd, even and disconnected graphs included."""
    assert M.is_factor_critical(adj) == all(
        2 * brute_max_matching_size(M.induced(adj, [v])) == len(adj) - 1 for v in adj)


# every catalogue member with n <= 16 and the tubes of 1..3 layers
_FACE_GRAPHS = [*(g for n in range(8, 17, 2) for g in catalogue(n).graphs),
                *(build_tube(layers)[0] for layers in (1, 2, 3))]


@PROPERTY
@given(st.sampled_from(_FACE_GRAPHS), st.integers(1, 4), st.none() | st.integers(0, 2**32))
def test_anti_kekule_sets_agree_with_every_combination(g, size, seed):
    """Sizes 1 to 4 on a graph of _FACE_GRAPHS or on a relabelled mirror
    image of it, seeded by a drawn number."""
    if seed is not None:
        g = relabelled_mirror(g, random.Random(seed))
    index = M.PmIndex(g.adj_dict())
    assert list(AK.sets_of_size(index, size)) == list(combination_anti_kekule_sets(index, size))
