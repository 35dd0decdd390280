"""Correctness checks on the workloads' outputs, against `pinned.json`.

Every check returns a list of problems; an empty list means the operation
passed.  The pins are label-invariant: per canonical code hex, the digest
fields that do not depend on vertex labels, so they hold for every seed's
relabelled batch.  Regenerate them with `python3 perfbench/pin.py` only
when the program's answers are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

# digest fields that are invariant under relabelling and mirroring
INVARIANT_FIELDS = ("n", "p4", "p5", "p6", "connectivity", "girth",
                    "short_cycles_facial", "nontrivial_cuts_leq3",
                    "has_cyclic_cut_leq3", "is_tube", "tube_layers",
                    "one_extendable", "two_extendable", "three_extendable",
                    "extendability", "ak_number")

CLI_COMMANDS = ("validate", "canonical", "extend-check", "antikekule")


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json(stdout: bytes):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"unparsable output: {exc}"


def check_verify(returncode: int, stdout: bytes, pins: dict, nmax: int) -> list[str]:
    """verify-all --nmax NMAX: exit 0, ok, face-count population and exact bytes."""
    want = pins["verify"][str(nmax)]
    problems = []
    if returncode != 0:
        problems.append(f"verify-all exited {returncode}, expected 0")
    report, err = _json(stdout)
    if err:
        return problems + [err]
    if report.get("ok") is not True:
        problems.append("report is not ok")
    pops = {c["anchor"]: c["population"] for c in report.get("claims", [])}
    if pops.get("face-count-identity") != want["face_count_population"]:
        problems.append(f"face-count-identity population "
                        f"{pops.get('face-count-identity')}, expected "
                        f"{want['face_count_population']}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != want["sha256"]:
        problems.append(f"report sha256 {digest[:12]} differs from the pinned "
                        f"{want['sha256'][:12]}")
    return problems


def check_ruler(returncode: int, stdout: bytes, pins: dict) -> list[str]:
    """The ruler: exit 0 and its pinned counts."""
    if returncode != 0:
        return [f"ruler exited {returncode}, expected 0"]
    if stdout.split() != [str(c).encode() for c in pins["ruler"]]:
        return ["ruler counts differ from the pinned ones"]
    return []


def _digest_problems(key: str, digest: dict, pins: dict, claims) -> list[str]:
    want = pins["graphs"].get(key)
    if want is None:
        return [f"{key[:16]}: canonical code not in the pinned batch"]
    problems = [f"{key[:16]}: {f} = {digest.get(f)!r}, pinned {want[f]!r}"
                for f in INVARIANT_FIELDS if digest.get(f) != want[f]]
    for anchor, _, pred in claims:
        try:
            ok = bool(pred(digest))
        except (KeyError, TypeError) as exc:
            ok = False
            anchor = f"{anchor} ({exc!r})"
        if not ok:
            problems.append(f"{key[:16]}: claim {anchor} fails")
    return problems


def check_cold_pass(digests: dict, pins: dict, claims) -> list[str]:
    """Cold pass: every pinned graph digested once, pins and claims hold."""
    problems = []
    missing = set(pins["graphs"]) - set(digests)
    if missing:
        problems.append(f"{len(missing)} pinned graphs have no digest")
    for key in sorted(digests):
        problems.extend(_digest_problems(key, digests[key], pins, claims))
    return problems


def check_warm_pass(cold: dict, warm: dict, misses: int) -> list[str]:
    """Warm pass: the sidecar gives back the cold digests without analysis."""
    problems = []
    if misses != 0:
        problems.append(f"warm pass analysed {misses} graphs, expected 0")
    if json.loads(json.dumps(cold)) != warm:
        problems.append("warm digests differ from the cold digests")
    return problems


def check_cli(command: str, returncode: int, stdout: bytes, pins: dict) -> list[str]:
    """One per-graph CLI command over the batch file."""
    graphs = pins["graphs"]
    want_code = pins["cli_exit"][command]
    problems = []
    if returncode != want_code:
        problems.append(f"{command} exited {returncode}, expected {want_code}")
    out, err = _json(stdout)
    if err:
        return problems + [err]
    if command == "canonical":
        keys = out.get("codes", [])
    else:
        keys = [rec.get("canonical") for rec in out.get("graphs", [])]
    if sorted(k for k in keys if k is not None) != sorted(graphs):
        problems.append(f"{command}: canonical codes differ from the pinned batch")
    for rec in out.get("graphs", []):
        want = graphs.get(rec.get("canonical"))
        if want is None:
            continue
        if command == "validate":
            got = {f: rec.get(f) for f in ("ok", "p4", "p5", "p6")}
            exp = {"ok": True, "p4": want["p4"], "p5": want["p5"], "p6": want["p6"]}
        elif command == "extend-check":
            got, exp = rec.get("extendable"), want["two_extendable"]
        elif command == "antikekule":
            got, exp = rec.get("number"), want["ak_number"]
        else:
            continue
        if got != exp:
            problems.append(f"{command} {rec['canonical'][:16]}: {got!r}, "
                            f"pinned {exp!r}")
    return problems
