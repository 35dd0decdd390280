"""Command-line front end.

Graphs travel between subcommands as binary planar_code (stdin/stdout or
files); analysis results are printed as JSON with sorted keys.  Exit codes:
0 when every check passes, 1 when a counterexample or negative verdict was
found, 2 for usage or input errors (a `FullexError` or `OSError`), 3 for an
internal error, reported with its traceback on stderr.  Each subcommand
imports the modules it needs when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__, planar_code
from .enumerator import DEFAULT_BOUND, configured_bound, enumerate_fullerenes
from .graphs import (FullexError, GraphError, canonical_code, is_chiral, norm_edge,
                     validate_fullerene)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _read_input(path: str):
    if path == "-":
        return list(planar_code.read_graphs(sys.stdin.buffer.read()))
    return planar_code.read_file(path)


def _write_output(graphs, path: Optional[str]) -> None:
    if path is None or path == "-":
        planar_code.write_graphs(sys.stdout.buffer, graphs)
        sys.stdout.buffer.flush()
    else:
        planar_code.write_file(path, graphs)


def _each_graph(graphs, command: str, record) -> int:
    """Emit one `{index, n, **fields}` record per graph, where
    `record(g) -> (fields, ok)`; exit 1 unless every graph is ok."""
    records = []
    all_ok = True
    for i, g in enumerate(graphs):
        fields, ok = record(g)
        records.append({"index": i, "n": g.n, **fields})
        all_ok = all_ok and ok
    _emit({"command": command, "graphs": records, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_COUNTEREXAMPLE


def cmd_validate(args) -> int:
    def record(g):
        try:
            inv = validate_fullerene(g)
            return {"ok": True, "p4": inv.p4, "p5": inv.p5, "p6": inv.p6,
                    "chiral": is_chiral(g),
                    "canonical": canonical_code(g).hex()}, True
        except GraphError as exc:
            return {"ok": False, "reason": str(exc)}, False
    return _each_graph(_read_input(args.file), "validate", record)


def cmd_gen_tube(args) -> int:
    from . import families
    if not args.descriptor:  # refuse a tube too big to write before building it
        planar_code.check_order(6 * args.layers + 8)
    g, desc = families.build_tube(args.layers)
    if args.descriptor:
        _emit({
            "command": "gen-tube",
            "layers": desc.n_layers,
            "vertices": g.n,
            "cap_centers": list(desc.cap_centers),
            "concentric_cycles": [list(c) for c in desc.concentric_cycles],
            "traversed_edges": [sorted([list(e) for e in layer])
                                for layer in desc.traversed_edges],
        })
        return EXIT_OK
    _write_output([g], args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from . import harness
    catalogue = enumerate_fullerenes(args.n)
    if args.stdout:
        _write_output(catalogue.graphs, "-")
        return EXIT_OK
    os.makedirs(args.outdir, exist_ok=True)
    path = os.path.join(args.outdir, f"fullerenes_n{args.n}.plc")
    planar_code.write_file(path, catalogue.graphs)
    sidecar = harness.DigestCache(args.outdir)
    payload = sidecar.save(args.n, catalogue, sidecar.load(args.n))
    _emit({"command": "enumerate", "n": args.n, "file": path, "count": payload["count"],
           "counts_by_faces": payload["counts_by_faces"]})
    return EXIT_OK


def cmd_extend_check(args) -> int:
    from .extendability import is_k_extendable

    def record(g):
        validate_fullerene(g)
        report = is_k_extendable(g, args.k)
        rec = {"k": args.k, "extendable": report.extendable,
               "canonical": canonical_code(g).hex()}
        if not report.extendable:
            rec["witness"] = [list(e) for e in report.witness]
            cert = report.certificate
            rec["certificate"] = {
                "s_size": len(cert.S),
                "component_count": len(cert.components),
                "all_factor_critical": all(cert.factor_critical_flags),
                "matchable": cert.matchable,
            }
        return rec, report.extendable
    return _each_graph(_read_input(args.file), "extend-check", record)


def cmd_antikekule(args) -> int:
    from . import matching as mt
    from .antikekule import anti_kekule_number

    def record(g):
        validate_fullerene(g)
        result = anti_kekule_number(mt.PmIndex(g.adj_dict()))
        return {"number": result.number,
                "witness": [list(e) for e in sorted(result.witness_set)],
                "canonical": canonical_code(g).hex()}, True
    return _each_graph(_read_input(args.file), "antikekule", record)


def _parse_edges(spec: str):
    """Edges written u-v,u-v; None when the spec does not parse."""
    out = []
    for part in spec.split(","):
        u, _, v = part.partition("-")
        try:
            out.append(norm_edge(int(u), int(v)))
        except ValueError:
            return None
    return out


def cmd_certify(args) -> int:
    from . import matching as mt
    graphs = _read_input(args.file)
    pair = _parse_edges(args.edges)
    if pair is None or len(pair) != 2 or len({*pair[0], *pair[1]}) != 4:
        return _fail("--edges expects two edges with four distinct ends, e.g. 0-1,4-9")

    def record(g):
        validate_fullerene(g)
        rec = {"edges": [list(e) for e in pair]}
        try:
            rec["extends"] = extends = mt.extends_to_perfect(g, pair)
        except mt.NotAMatching as exc:  # an edge this graph lacks
            return {**rec, "reason": str(exc)}, False
        if not extends:
            cert = mt.matching_certificate(g.adj_dict(), pair)
            rec["certificate"] = {
                "s": sorted(cert.S),
                "components": [sorted(c) for c in cert.components],
                "all_factor_critical": all(cert.factor_critical_flags),
                "matchable": cert.matchable,
                "deficiency": cert.deficiency,
            }
        return rec, extends
    return _each_graph(graphs, "certify", record)


def cmd_canonical(args) -> int:
    graphs = _read_input(args.file)
    _emit({"command": "canonical",
           "codes": [canonical_code(g).hex() for g in graphs]})
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from . import harness
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}")
    nmax = configured_bound() if args.nmax is None else args.nmax
    report = harness.verify_all(nmax, jobs=args.jobs,
                                cache_dir=args.cache_dir)
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullex",
        description="matching extendability of (4,5,6)-fullerene graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate planar_code fullerenes")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-tube", help="emit a tube as planar_code")
    p.add_argument("layers", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--descriptor", action="store_true",
                   help="print the JSON layer descriptor instead")
    p.set_defaults(func=cmd_gen_tube)

    p = sub.add_parser("enumerate", help="catalogue all fullerenes on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--outdir", default=".")
    p.add_argument("--stdout", action="store_true",
                   help="stream planar_code instead of writing files")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("extend-check", help="decide k-extendability")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_extend_check)

    p = sub.add_parser("antikekule", help="anti-Kekule number with witness")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_antikekule)

    p = sub.add_parser("certify", help="check a matching pair, certify failure")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--edges", required=True,
                   help="two edges as u-v,u-v with 0-based vertex ids")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("canonical", help="canonical codes of the input graphs")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("verify-all", help="run the complete claim suite")
    p.add_argument("--nmax", type=int, default=None,
                   help="largest vertex count, up to and by default "
                        f"FULLEX_NMAX (else {DEFAULT_BOUND})")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FullexError, OSError) as exc:
        return _fail(str(exc))
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
