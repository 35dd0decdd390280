"""The seeded input batch for the analysis and per-graph workloads.

The batch holds one member of every isomorphism class of (4,5,6)-fullerenes
on 8..16 vertices (15 graphs) plus the tubes with 2..4 layers (20..32
vertices), 18 pairwise non-isomorphic graphs.  The 5-layer tube is left
out: relabelled, it alone takes 4-7 s to analyse, which leaves a run too
few operations for a steady median.  Building it enumerates the
catalogues and builds the tubes, and their canonical codes must be the ones
pinned in `pinned.json`.  The graphs written are then rebuilt from the
pinned codes, in sorted order, and each gets a vertex permutation and a
mirror chosen by the seed and the copy number; a run gives each of its
operations the next copy, and the command line writes copy 0.  So a file depends only on the seed, the copy
and the pins, never on the labels or the order in which the program
returns its graphs, and the same seed and copy give byte-identical files.

    python3 perfbench/batch.py --seed 7 --out batch.plc
    python3 perfbench/batch.py --summary batch.plc
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from fullex import planar_code  # noqa: E402
from fullex.enumerator import enumerate_fullerenes  # noqa: E402
from fullex.families import build_tube  # noqa: E402
from fullex.graphs import PlaneCubicGraph, canonical_code, faces, from_rotation  # noqa: E402
from fullex.matching import count_perfect_matchings  # noqa: E402

import checks  # noqa: E402

CATALOGUE_SIZES = range(8, 17, 2)
TUBE_LAYERS = range(2, 5)


def source_graphs() -> list[PlaneCubicGraph]:
    """The batch's classes as the program produces them."""
    out = []
    for n in CATALOGUE_SIZES:
        out.extend(enumerate_fullerenes(n, bound=max(CATALOGUE_SIZES)).graphs)
    out.extend(build_tube(layers)[0] for layers in TUBE_LAYERS)
    return out


def from_code(hex_code: str) -> PlaneCubicGraph:
    """The graph a canonical code lists: per vertex its degree, then its
    neighbours in rotation order."""
    code = bytes.fromhex(hex_code)
    rot, i = [], 0
    while i < len(code):
        k = code[i]
        rot.append(tuple(code[i + 1:i + 1 + k]))
        i += 1 + k
    return from_rotation(len(rot), rot)


def relabel(g: PlaneCubicGraph, rng: random.Random) -> PlaneCubicGraph:
    """An isomorphic copy under a random vertex permutation, mirrored at random."""
    perm = rng.sample(range(g.n), g.n)
    mirror = rng.random() < 0.5
    rot: list = [None] * g.n
    for v, nbrs in enumerate(g.rot):
        r = tuple(perm[w] for w in nbrs)
        rot[perm[v]] = r[::-1] if mirror else r
    return from_rotation(g.n, rot)


def build_batch(seed: int, codes, copy: int = 0) -> list[PlaneCubicGraph]:
    rng = random.Random(f"{seed}.{copy}")
    return [relabel(from_code(c), rng) for c in sorted(codes)]


def summary(graphs) -> list[dict]:
    """Per graph (n, p4, p5, p6, perfect-matching count), in file order."""
    rows = []
    for g in graphs:
        inv = faces(g)
        rows.append({"n": g.n, "p4": inv.p4, "p5": inv.p5, "p6": inv.p6,
                     "pm_count": count_perfect_matchings(g)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--summary", metavar="FILE",
                        help="print the per-graph rows of a batch file as JSON")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summary(planar_code.read_file(args.summary))))
        return 0
    if args.seed is None or not args.out:
        parser.error("--seed and --out are required to build a batch")
    pinned = sorted(checks.load_pins()["graphs"])
    found = sorted(canonical_code(g).hex() for g in source_graphs())
    if found != pinned:
        sys.stderr.write(f"error: the program's {len(found)} batch classes differ "
                         f"from the {len(pinned)} pinned ones\n")
        return 1
    planar_code.write_file(args.out, build_batch(args.seed, pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
