"""Regenerate `pinned.json`, the expected answers the checks compare against.

    python3 perfbench/pin.py

Pins the label-invariant digest fields of every batch graph (on the
generators' own labels), the exit code each per-graph CLI command gives on
the batch, the ruler's counts, and the exact bytes of `fullex verify-all` at the timed
`--nmax 16` and the traced `--nmax 18`.  Run it only when a change is
meant to alter the program's answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import batch  # noqa: E402  (puts src/ on the path)
import ruler  # noqa: E402
from checks import INVARIANT_FIELDS, PINS_PATH  # noqa: E402
from fullex.graphs import canonical_code  # noqa: E402
from fullex.harness import analyze_graph, verify_all  # noqa: E402

VERIFY_NMAX = (16, 18)


def verify_pin(nmax: int) -> dict:
    report = verify_all(nmax).render().encode()
    face_pop = next(c["population"] for c in json.loads(report)["claims"]
                    if c["anchor"] == "face-count-identity")
    return {"sha256": hashlib.sha256(report).hexdigest(),
            "face_count_population": face_pop}


def main() -> int:
    graphs = {}
    for g in batch.source_graphs():
        digest = analyze_graph(g)
        graphs[canonical_code(g).hex()] = {f: digest[f] for f in INVARIANT_FIELDS}
    all_two = all(d["two_extendable"] for d in graphs.values())
    pins = {
        "verify": {str(n): verify_pin(n) for n in VERIFY_NMAX},
        "cli_exit": {"validate": 0, "canonical": 0,
                     "extend-check": 0 if all_two else 1, "antikekule": 0},
        "graphs": graphs,
        "ruler": ruler.counts(),
    }
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
