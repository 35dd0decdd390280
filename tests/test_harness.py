import hashlib
import json
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from fullex import antikekule as A
from fullex import enumerator as EN
from fullex import extendability as E
from fullex import families as F
from fullex import graphs as G
from fullex import harness
from fullex import matching as M
from fullex import planar_code as PC
from fullex.enumerator import BoundExceeded
from fullex.graphs import canonical_code

from conftest import (catalogue, cube_graph, dodecahedron_graph, exhaustive_cyclic_cut_leq3,
                      sporadic, witness_pair)


def test_analyze_cube_digest(cube):
    d = harness.analyze_graph(cube)
    assert d["n"] == 8
    assert (d["p4"], d["p5"], d["p6"]) == (6, 0, 0)
    assert d["connectivity"] == 3
    assert d["girth"] == 4
    assert d["two_extendable"] and not d["three_extendable"]
    assert d["ak_number"] == 4
    assert d["is_tube"] is False
    assert d["certificate"] is None
    json.dumps(d)  # digests must be JSON-serializable as-is
    assert d.keys() == harness.DIGEST_TYPES.keys()


def test_short_cycle_search_runs_once_per_graph(monkeypatch):
    """analyze_graph makes one search of the graph's 3- to 5-cycles, which
    serves girth and short_cycles_facial, beside the one of the dual's
    <= 3-cycles for the cuts; with a quadrilateral (girth 4) or without
    (girth 5)."""
    searches = []
    search = G._cycles_up_to

    def spy(adj, k):
        searches.append((len(adj), k))
        return search(adj, k)

    monkeypatch.setattr(G, "_cycles_up_to", spy)
    for g, girth in ((cube_graph(), 4), (dodecahedron_graph(), 5)):
        searches.clear()
        d = harness.analyze_graph(g)
        assert (d["girth"], d["short_cycles_facial"]) == (girth, True)
        assert sorted(searches) == [(G.faces(g).count, 3), (g.n, 5)]


def test_certificate_fields():
    cert = harness.analyze_graph(F.build_tube(1)[0])["certificate"]
    assert cert.keys() == harness.CERTIFICATE_TYPES.keys()


def test_verify_all_smallest_population():
    report = harness.verify_all(8)
    assert report.ok
    by_anchor = {c.anchor: c for c in report.claims}
    assert by_anchor["face-count-identity"].population == 1
    assert by_anchor["tube-implies-non-two-extendable"].failures == 0
    rendered = report.render()
    assert rendered.endswith("\n")
    parsed = json.loads(rendered)
    assert parsed["ok"] is True and parsed["nmax"] == 8


@pytest.mark.parametrize("nmax", [6, 7, 0])
def test_verify_all_refuses_a_bound_below_eight(nmax):
    # no catalogue exists below n = 8, so every claim would hold vacuously
    with pytest.raises(BoundExceeded, match="outside the enumeration range 8"):
        harness.verify_all(nmax)


@pytest.mark.parametrize("nmax", [50, 51, 60])
def test_verify_all_refuses_a_tube_past_the_exhaustive_check_before_the_walk(
        nmax, monkeypatch, capsys):
    # nmax 48 takes the 6-layer tube, the largest the check accepts; 50 takes 7
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setenv("FULLEX_NMAX", str(nmax))
    monkeypatch.setattr(EN, "_walk", walk)
    with pytest.raises(F.BadLayerCount, match="6"):
        harness.verify_all(nmax)
    from fullex import cli
    assert cli.main(["verify-all", "--nmax", str(nmax)]) == 2
    assert "at most 6 layers, got 7" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="the walk ran"):
        harness.verify_all(48)


def test_verify_all_report_fields():
    report = harness.verify_all(10)
    payload = report.to_json()
    for claim in payload["claims"]:
        assert set(claim) == {"anchor", "claim", "population", "passes",
                              "failures", "counterexamples"}
        assert claim["population"] == claim["passes"] + claim["failures"]


def test_corrupted_cache_entry_fails_with_counterexample(tmp_path):
    # seed the digest cache, then poison one record
    harness.verify_all(8, cache_dir=str(tmp_path))
    sidecar = tmp_path / "fullerenes_n8.json"
    data = json.loads(sidecar.read_text())
    key = next(iter(data["digests"]))
    data["digests"][key]["connectivity"] = 2
    sidecar.write_text(json.dumps(data))

    report = harness.verify_all(8, cache_dir=str(tmp_path))
    assert not report.ok
    by_anchor = {c.anchor: c for c in report.claims}
    failing = by_anchor["connectivity-three"]
    assert failing.failures == 1
    assert failing.counterexamples
    record = failing.counterexamples[0]
    assert record["canonical"] == key
    # the record carries enough to re-run the check on the named graph
    g = next(PC.read_graphs(PC.HEADER + bytes.fromhex(record["planar_code"])))
    fresh = harness.analyze_graph(g)
    assert fresh["connectivity"] == 3  # the graph is fine; the cache was not


def test_failing_report_keeps_its_bytes(tmp_path):
    """A report with failing claims keeps its pinned bytes: the sidecars of
    a run at nmax 16 are rewritten under their own source stamp, so that
    no graph at n = 10 has anti-Kekule number 3, every certificate at
    n = 12 has as many components as deleted vertices, and every graph at
    n = 14 has connectivity 2."""
    harness.verify_all(16, cache_dir=str(tmp_path))

    def rewrite(n, edit):
        sidecar = tmp_path / f"fullerenes_n{n}.json"
        data = json.loads(sidecar.read_text())
        for digest in data["digests"].values():
            edit(digest)
        sidecar.write_text(json.dumps(data))

    def no_spare_components(digest):
        if digest["certificate"] is not None:
            digest["certificate"]["component_count"] = digest["certificate"]["s_size"]

    rewrite(10, lambda d: d.update(ak_number=4))
    rewrite(12, no_spare_components)
    rewrite(14, lambda d: d.update(connectivity=2))
    report = harness.verify_all(16, cache_dir=str(tmp_path))
    failing = {c.anchor: (c.failures, len(c.counterexamples))
               for c in report.claims if c.failures}
    assert failing == {"connectivity-three": (4, 4),
                       "witness-certificate-shape": (1, 1),
                       "ak-three-exists-each-even-size": (1, 1),
                       "sporadic-witness-certificates": (1, 1)}
    text = report.render().encode()
    assert len(text) == 20213
    assert hashlib.sha256(text).hexdigest() == (
        "296fc7590fbcbfc3df795d7ff5cbdca089906a3e72dbe4bc375d91a8dae96611")


def test_malformed_cache_entry_is_reanalysed(tmp_path):
    harness.verify_all(8, cache_dir=str(tmp_path))
    sidecar = tmp_path / "fullerenes_n8.json"
    data = json.loads(sidecar.read_text())
    key = next(iter(data["digests"]))
    good = data["digests"][key]
    for bad in ({}, dict(good, p4=None), dict(good, girth="4")):
        data["digests"][key] = bad
        sidecar.write_text(json.dumps(data))
        assert harness.DigestCache(str(tmp_path)).load(8) == {}
        assert harness.verify_all(8, cache_dir=str(tmp_path)).ok
        assert json.loads(sidecar.read_text())["digests"][key] == good


def test_malformed_certificate_is_a_cache_miss(tmp_path):
    harness.verify_all(10, cache_dir=str(tmp_path))
    sidecar = tmp_path / "fullerenes_n10.json"
    data = json.loads(sidecar.read_text())
    (key, digest), = data["digests"].items()
    good = digest["certificate"]
    assert good is not None
    for bad in ({}, [], 7, dict(good, extra=1), dict(good, s_size="3")):
        digest["certificate"] = bad
        sidecar.write_text(json.dumps(data))
        assert harness.DigestCache(str(tmp_path)).load(10) == {}
    digest["certificate"] = good
    sidecar.write_text(json.dumps(data))
    assert harness.DigestCache(str(tmp_path)).load(10) == {key: digest}


def _poisoned_sidecar(tmp_path, stamp):
    """The n = 8 sidecar with one digest poisoned and its source stamp set
    to `stamp`, or dropped for None."""
    harness.verify_all(8, cache_dir=str(tmp_path))
    sidecar = tmp_path / "fullerenes_n8.json"
    data = json.loads(sidecar.read_text())
    assert data.pop("source_sha256") == harness.source_stamp()
    if stamp is not None:
        data["source_sha256"] = stamp
    key = next(iter(data["digests"]))
    data["digests"][key]["connectivity"] = 2
    sidecar.write_text(json.dumps(data))
    return sidecar


def test_cache_invalidated_by_version(tmp_path):
    # any change to the sources, a version bump included, changes the stamp
    sidecar = _poisoned_sidecar(tmp_path, "0" * 64)
    assert harness.DigestCache(str(tmp_path)).load(8) == {}
    # stale cache is ignored, so the poisoned digest has no effect
    assert harness.verify_all(8, cache_dir=str(tmp_path)).ok
    assert json.loads(sidecar.read_text())["source_sha256"] == harness.source_stamp()


def test_sidecar_without_source_stamp_is_a_miss(tmp_path):
    sidecar = _poisoned_sidecar(tmp_path, None)
    assert harness.DigestCache(str(tmp_path)).load(8) == {}
    assert harness.verify_all(8, cache_dir=str(tmp_path)).ok
    assert json.loads(sidecar.read_text())["source_sha256"] == harness.source_stamp()


def test_source_stamp_hashes_the_package_sources_in_sorted_order():
    src = Path(harness.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    assert harness.source_stamp() == digest.hexdigest()


def test_parallel_digests_match_serial():
    cat = catalogue(12)
    serial = harness.catalogue_digests(cat, jobs=1)
    parallel = harness.catalogue_digests(cat, jobs=2)
    assert serial == parallel


def test_counterexample_record_identifies_graph(cube):
    d = harness.analyze_graph(cube)
    rec = harness._counterexample(cube, d)
    assert rec["canonical"] == canonical_code(cube).hex()
    g = next(PC.read_graphs(PC.HEADER + bytes.fromhex(rec["planar_code"])))
    assert canonical_code(g) == canonical_code(cube)


def test_analyze_graph_computes_each_fact_once(monkeypatch):
    calls = {"pm": 0, "cert": 0, "blossom": 0}
    # each structure fact comes from the one function that defines it
    for module, name in [(G, "edge_cuts_up_to"), (G, "connectivity"),
                         (G, "has_cyclic_cut_leq3"), (A, "anti_kekule_number")]:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        calls[name] = 0
        for ns in (module, harness):
            if hasattr(ns, name):
                monkeypatch.setattr(ns, name, counted)
    enumerate_pms = M.perfect_matchings
    certify = M.deficiency_certificate
    has_pm = M.has_perfect_matching

    def counted_pms(g):
        calls["pm"] += 1
        return enumerate_pms(g)

    def counted_cert(g):
        calls["cert"] += 1
        return certify(g)

    def counted_has_pm(g):  # the index answers existence: no blossom run
        calls["blossom"] += 1
        return has_pm(g)

    monkeypatch.setattr(M, "perfect_matchings", counted_pms)
    monkeypatch.setattr(M, "deficiency_certificate", counted_cert)
    monkeypatch.setattr(M, "has_perfect_matching", counted_has_pm)
    graphs = list(catalogue(12).graphs) + [F.build_tube(1)[0]]
    certified = 0
    for g in graphs:
        calls.update(dict.fromkeys(calls, 0))
        d = harness.analyze_graph(g)
        assert calls["pm"] == 1
        assert calls["edge_cuts_up_to"] == calls["connectivity"] == 1
        assert calls["has_cyclic_cut_leq3"] == calls["anti_kekule_number"] == 1
        assert calls["blossom"] == 0
        assert calls["cert"] <= 1
        certified += calls["cert"]
        assert (d["certificate"] is None) == d["two_extendable"]
    assert certified == 2  # the sporadic n = 12 graph and the tube


def test_tube_suite_enumerates_perfect_matchings_once_per_tube(monkeypatch):
    calls = []
    builds = []
    enumerate_pms = M.perfect_matchings
    build = F.build_tube

    def counted_pms(g):
        calls.append(len(M.adjacency_of(g)))
        return enumerate_pms(g)

    def counted_build(n_layers):
        builds.append(n_layers)
        return build(n_layers)

    monkeypatch.setattr(M, "perfect_matchings", counted_pms)
    monkeypatch.setattr(F, "build_tube", counted_build)
    claims = harness._tube_suite(20)
    assert calls == [14, 20]  # the tubes with one and two layers
    # the suite's tube, then recognize_tube's reference tube
    assert builds == [1, 1, 2, 2]
    assert all(c.failures == 0 and c.population == 2 for c in claims)


def test_derived_cyclic_cut_flag_matches_exhaustive_scan():
    graphs = [g for n in range(8, 17, 2) for g in catalogue(n).graphs]
    graphs += [F.build_tube(layers)[0] for layers in (1, 2, 3)]
    flags = []
    for g in graphs:
        d = harness.analyze_graph(g)
        assert d["has_cyclic_cut_leq3"] == exhaustive_cyclic_cut_leq3(g)
        flags.append(d["has_cyclic_cut_leq3"])
    assert any(flags) and not all(flags)


class _RecordingPool:
    """Stand-in for harness._process_pool that runs the map in process."""

    created: list[int] = []
    broken = False

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        if self.broken:
            raise BrokenProcessPool("a worker died")
        return map(fn, items)

    def shutdown(self):
        pass


def test_jobs_clamped_to_cpus_and_uncached_graphs(monkeypatch):
    monkeypatch.setattr(harness, "_process_pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    cat12 = catalogue(12)
    serial = harness.catalogue_digests(cat12, jobs=1)
    assert harness.catalogue_digests(cat12, jobs=10**6) == serial
    assert _RecordingPool.created == [2]  # two graphs at n = 12
    harness.catalogue_digests(catalogue(16), jobs=10**6)
    assert _RecordingPool.created == [2, 4]  # six graphs, four CPUs
    harness.catalogue_digests(catalogue(8), jobs=10**6)
    assert _RecordingPool.created == [2, 4]  # one graph runs serially


def test_broken_pool_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr(harness, "_process_pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "broken", True)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    cat = catalogue(12)
    assert (harness.catalogue_digests(cat, jobs=2)
            == harness.catalogue_digests(cat, jobs=1))


def test_verify_all_starts_one_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_process_pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = harness.verify_all(16).render()
    assert _RecordingPool.created == []
    assert harness.verify_all(16, jobs=2, cache_dir=str(tmp_path)).render() == serial
    assert _RecordingPool.created == [2]  # sizes 12, 14 and 16 share it
    harness.verify_all(16, jobs=2, cache_dir=str(tmp_path))
    assert _RecordingPool.created == [2]  # every digest cached: no pool


def test_unreadable_sidecar_is_a_cache_miss(tmp_path):
    cache = harness.DigestCache(str(tmp_path))
    sidecar = tmp_path / "fullerenes_n8.json"
    stale_shape = json.dumps({"source_sha256": harness.source_stamp(), "digests": 7})
    for garbage in (b"{not json", b"\xff\xfe\x00", b"[1, 2]", stale_shape.encode(),
                    b"[" * 100000):
        sidecar.write_bytes(garbage)
        assert cache.load(8) == {}


def test_failed_sidecar_save_keeps_the_previous_file(tmp_path, monkeypatch):
    cat = catalogue(8)
    cache = harness.DigestCache(str(tmp_path))
    digests = harness.catalogue_digests(cat, cache=cache)

    class FullDisk:
        """A file that takes the first character of a write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:1])
            raise OSError("disk full")

    def open_on_full_disk(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(harness, "open", open_on_full_disk, raising=False)
    with pytest.raises(OSError):
        cache.save(8, cat, {})
    monkeypatch.undo()
    assert cache.load(8) == digests
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fullerenes_n8.json"]


def test_full_current_sidecar_is_not_rewritten(tmp_path, monkeypatch):
    """A second pass over a sidecar that holds every digest under the
    current source stamp reads it and leaves the file as it is."""
    cat = catalogue(12)
    cache = harness.DigestCache(str(tmp_path))
    digests = harness.catalogue_digests(cat, cache=cache)

    def save(*args):
        raise AssertionError("a full, current sidecar was rewritten")

    monkeypatch.setattr(harness.DigestCache, "save", save)
    assert harness.catalogue_digests(cat, cache=cache) == digests


def test_verify_all_sweeps_each_graph_once(monkeypatch):
    """verify_all(16) sweeps each of the 15 classes on 8-16 vertices once,
    in the enumerator, and the relabelled mirror of each of the 1- and
    2-layer tubes once, in recognize_tube; no built tube is swept."""
    sweep, sizes = G._code_sweep, []

    def counted(n, rot):
        sizes.append(n)
        return sweep(n, rot)

    monkeypatch.setattr(G, "_code_sweep", counted)
    monkeypatch.setattr(EN, "_code_sweep", counted)
    harness.verify_all(16)
    assert len(sizes) == 17
    assert sorted(sizes) == sorted(
        [g.n for n in range(8, 17, 2) for g in catalogue(n).graphs] + [14, 20])


@pytest.mark.parametrize("n", [12, 14, 18])
def test_sporadic_candidates_match_the_public_per_graph_functions(n):
    cat = catalogue(n)
    expected = []
    for g in sorted(cat.graphs, key=canonical_code):
        if (F.recognize_tube(g) is None
                and A.anti_kekule_number(M.PmIndex(g.adj_dict())).number == 3):
            witness = E.is_k_extendable(g, 2).witness
            if witness is not None:
                expected.append((g, witness))
    got = sporadic(n)
    assert expected
    assert [(g, witness_pair(d)) for g, d in got] == expected
    assert all(d["n"] == n and d["ak_number"] == 3 for _, d in got)
