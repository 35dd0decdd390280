"""Work run in a fresh interpreter for one benchmark operation.

    python3 perfbench/child.py analyze BATCH CACHE_DIR RESULT
    python3 perfbench/child.py --trace SPANS --run-id ID analyze BATCH CACHE_DIR RESULT
    python3 perfbench/child.py --trace SPANS --run-id ID cli -- ARGS...
    python3 perfbench/child.py --trace SPANS --run-id ID batch -- ARGS...

`analyze` groups the batch by n into catalogues and digests them twice
through `harness.catalogue_digests` with one sidecar directory: a cold pass
that analyses every graph and a warm pass that should only read the
sidecar.  `cli` runs `fullex.cli.main` in process and `batch` the batch
generator.  With `--trace` the public fullex functions are wrapped by the
span tracer and the spans are written to SPANS when the work ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from fullex import harness, planar_code  # noqa: E402
from fullex.enumerator import Catalogue  # noqa: E402
from fullex.graphs import faces  # noqa: E402

from tracer import Tracer  # noqa: E402


def _catalogues(graphs) -> list[Catalogue]:
    by_n: dict[int, list] = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    cats = []
    for n in sorted(by_n):
        counts: dict[tuple[int, int, int], int] = {}
        for g in by_n[n]:
            inv = faces(g)
            key = (inv.p4, inv.p5, inv.p6)
            counts[key] = counts.get(key, 0) + 1
        cats.append(Catalogue(n, tuple(by_n[n]), counts))
    return cats


class _LoadLog(harness.DigestCache):
    """A digest cache that remembers every canonical hex its loads returned."""

    def __init__(self, directory):
        super().__init__(directory)
        self.loaded: set[str] = set()

    def load(self, n):
        digests = super().load(n)
        self.loaded.update(digests)
        return digests


def _digest_all(cats, cache) -> dict:
    out = {}
    for cat in cats:
        out.update(harness.catalogue_digests(cat, jobs=1, cache=cache))
    return out


def analyze(batch: str, cache_dir: str, result: str, tracer: Tracer | None) -> int:
    cats = _catalogues(planar_code.read_file(batch))
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span("bench.cold_pass"):
        cold = _digest_all(cats, harness.DigestCache(cache_dir))
    t1 = time.perf_counter()
    warm_cache = _LoadLog(cache_dir)
    with span("bench.warm_pass"):
        warm = _digest_all(cats, warm_cache)
    t2 = time.perf_counter()
    # a warm-pass graph the sidecar did not give back had to be analysed
    misses = len(set(warm) - warm_cache.loaded)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"cold": cold, "warm": warm, "warm_misses": misses,
                   "cold_s": t1 - t0, "warm_s": t2 - t1}, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--run-id", default="untraced")
    parser.add_argument("target", choices=("analyze", "cli", "batch"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        tracer.install()
    try:
        if args.target == "analyze":
            return analyze(*rest, tracer=tracer)
        if args.target == "cli":
            from fullex.cli import main as cli_main
            code = cli_main(rest)
            sys.stdout.flush()
            return code
        import batch
        return batch.main(rest)
    finally:
        if tracer:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
