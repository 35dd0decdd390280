"""Pinned census of the (4,5,6)-fullerene catalogues.

`data/census.json` holds, for every even n in 8..34, the catalogue size,
the face-vector histogram and the sha256 of the sorted canonical codes,
and from the analysis digests the number of tubes, of non-2-extendable
graphs and of graphs with anti-Kekule number 3, the total count of
nontrivial edge cuts of size <= 3, and the sha256 of the digests
themselves (sorted-key JSON, in catalogue order).  An enumerator or
analysis rewrite must reproduce it exactly.  Tier-1 checks n <= 20;
n = 22..34 run only with FULLEX_CENSUS_FULL=1, and so do the check of the
n = 16 catalogue against the naive oracle and the check that the walk's
defect bound 2 (v_max - v') loses no leaf that the bound 4 (v_max - v')
finds, for v_max <= 15.  The classical slice of the pinned rows (no
quadrilaterals) is checked against the published counts in tier-1.

Regenerate (only ever from an enumerator and analysis already known to be
right):

    PYTHONPATH=src python tests/test_census.py > tests/data/census.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from fullex import enumerator as EN
from fullex import harness

from conftest import canonical_codes, catalogue, catalogues

CENSUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "census.json")
CENSUS_SIZES = range(8, 35, 2)
FULL = os.environ.get("FULLEX_CENSUS_FULL") == "1"

# classical fullerenes (p4 = 0) on n = 20, 22, ..., 34 vertices, mirror
# images identified: OEIS A007894; P. W. Fowler and D. E. Manolopoulos,
# An Atlas of Fullerenes (1995)
CLASSICAL_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6}


def census_row(n: int) -> dict:
    # n <= 20 from the walk the other tests share, the rest from one walk
    cat = catalogues(20 if n <= 20 else max(CENSUS_SIZES))[n]
    codes = "\n".join(sorted(c.hex() for c in canonical_codes(cat)))
    digests = [harness.analyze_graph(g) for g in cat.graphs]
    return {
        "analysis": {
            "tubes": sum(d["is_tube"] for d in digests),
            "non_two_extendable": sum(not d["two_extendable"] for d in digests),
            "ak3": sum(d["ak_number"] == 3 for d in digests),
            "nontrivial_cuts_leq3": sum(d["nontrivial_cuts_leq3"] for d in digests),
        },
        "digests_sha256": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "size": cat.size,
        "faces": {f"{p4},{p5},{p6}": k
                  for (p4, p5, p6), k in sorted(cat.counts.items())},
        "sha256": hashlib.sha256(codes.encode()).hexdigest(),
    }


def _pinned() -> dict:
    with open(CENSUS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("n", [
    n if n <= 20 else pytest.param(n, marks=pytest.mark.skipif(
        not FULL, reason="n >= 22 runs with FULLEX_CENSUS_FULL=1"))
    for n in CENSUS_SIZES])
def test_census(n):
    assert census_row(n) == _pinned()[str(n)]


@pytest.mark.skipif(not FULL, reason="runs with FULLEX_CENSUS_FULL=1")
def test_fast_and_naive_members_are_identical_at_sixteen():
    fast = catalogue(16)
    naive = catalogue(16, naive=True)
    assert canonical_codes(fast) == canonical_codes(naive)
    assert [g.rot for g in fast.graphs] == [g.rot for g in naive.graphs]


def _walk_at_four_per_level(v_max: int) -> list[list[EN.Rotation]]:
    """The leaves of `EN._walk(v_max)` with the defect bound
    4 (v_max - v'), which contracting any edge keeps."""
    levels: list[list[EN.Rotation]] = [[] for _ in range(v_max + 1)]

    def grow(n: int, rot: EN.Rotation, group: EN.Group) -> None:
        if all(4 <= len(r) <= 6 for r in rot):
            levels[n].append(rot)
        if n < v_max:
            for child, child_group in EN._children(n, rot, 4 * (v_max - n - 1), group):
                grow(n + 1, child, child_group)

    grow(4, EN._K4_ROT, EN._K4_GROUP)
    return levels[4:]


@pytest.mark.skipif(not FULL, reason="runs with FULLEX_CENSUS_FULL=1")
def test_walk_keeps_the_leaves_of_the_four_per_level_walk():
    for v_max in range(5, 16):
        leaves = [rots for _, rots in EN._walk(v_max)]
        assert leaves == _walk_at_four_per_level(v_max), v_max


def test_classical_slice_matches_published_counts():
    """The pinned p4 = 0 rows are the classical fullerenes.  2 p4 + p5 = 12
    and Euler's formula make their face key 0,12,(n - 20)/2, so no row
    below n = 20 has one, and canonical codes identify mirror images as
    the published counts do."""
    for n in CENSUS_SIZES:
        faces = _pinned()[str(n)]["faces"]
        classical = {key: k for key, k in faces.items() if key.startswith("0,")}
        count = CLASSICAL_COUNTS.get(n, 0)
        assert classical == ({f"0,12,{(n - 20) // 2}": count} if count else {}), n


def test_census_covers_sizes():
    assert sorted(map(int, _pinned())) == list(CENSUS_SIZES)


if __name__ == "__main__":
    json.dump({str(n): census_row(n) for n in CENSUS_SIZES}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
