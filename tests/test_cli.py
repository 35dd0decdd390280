import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fullex
from fullex import planar_code as PC

from conftest import cube_graph


def run_cli(args, input=None):
    return subprocess.run([sys.executable, "-m", "fullex.cli"] + args,
                          capture_output=True, input=input)


def cube_bytes():
    import io
    buf = io.BytesIO()
    PC.write_graphs(buf, [cube_graph()])
    return buf.getvalue()


def test_gen_tube_pipe_extend_check():
    tube = run_cli(["gen-tube", "3"])
    assert tube.returncode == 0
    check = run_cli(["extend-check", "--k", "2"], input=tube.stdout)
    assert check.returncode == 1
    report = json.loads(check.stdout)
    rec = report["graphs"][0]
    assert rec["extendable"] is False
    assert len(rec["witness"]) == 2
    assert rec["certificate"]["component_count"] == rec["certificate"]["s_size"] + 2


def test_gen_tube_descriptor():
    r = run_cli(["gen-tube", "2", "--descriptor"])
    assert r.returncode == 0
    desc = json.loads(r.stdout)
    assert desc["layers"] == 2
    assert desc["vertices"] == 20
    assert len(desc["traversed_edges"]) == 2
    # the bytes for 1..6 layers pin centres, cycles and edges in their order
    out = b"".join(run_cli(["gen-tube", str(layers), "--descriptor"]).stdout
                   for layers in range(1, 7))
    assert hashlib.sha256(out).hexdigest() == (
        "b55057641051a9701d677e45f7971a1a964c47bb4e25d70b7296dac4db94117e")


def test_gen_tube_descriptor_of_a_long_tube_is_fast():
    """Building a tube is linear in its vertices: the 2000-layer tube, 12 008
    vertices, is described within 5 s."""
    t0 = time.perf_counter()
    r = run_cli(["gen-tube", "2000", "--descriptor"])
    assert r.returncode == 0
    assert time.perf_counter() - t0 < 5
    assert json.loads(r.stdout)["vertices"] == 12008


def test_validate_cube():
    r = run_cli(["validate"], input=cube_bytes())
    assert r.returncode == 0
    rec = json.loads(r.stdout)["graphs"][0]
    assert rec["ok"] and rec["p4"] == 6


def test_validate_malformed_input_exits_two():
    r = run_cli(["validate"], input=b"definitely not planar code")
    assert r.returncode == 2


def test_extend_check_rejects_six_vertex_graph():
    # triangular prism: plane cubic, but its triangles fail validation
    import io
    from fullex.graphs import from_rotation
    prism = from_rotation(6, [(1, 3, 2), (0, 2, 4), (0, 5, 1),
                              (0, 4, 5), (1, 5, 3), (2, 3, 4)])
    buf = io.BytesIO()
    PC.write_graphs(buf, [prism])
    r = run_cli(["extend-check", "--k", "2"], input=buf.getvalue())
    assert r.returncode == 2


def test_usage_error_exits_two():
    r = run_cli(["no-such-command"])
    assert r.returncode == 2


def test_extend_check_one_extendable_cube():
    r = run_cli(["extend-check", "--k", "1"], input=cube_bytes())
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_antikekule_cube():
    r = run_cli(["antikekule"], input=cube_bytes())
    assert r.returncode == 0
    rec = json.loads(r.stdout)["graphs"][0]
    assert rec["number"] == 4
    assert len(rec["witness"]) == 4


def test_certify_extending_pair():
    r = run_cli(["certify", "--edges", "0-1,6-7"], input=cube_bytes())
    assert r.returncode == 0
    assert json.loads(r.stdout)["graphs"][0]["extends"] is True


def test_certify_nonextendable_pair_on_tube():
    tube = run_cli(["gen-tube", "1"]).stdout
    r = run_cli(["certify", "--edges", "2-7,4-9"], input=tube)
    assert r.returncode == 1
    rec = json.loads(r.stdout)["graphs"][0]
    assert rec["extends"] is False
    cert = rec["certificate"]
    assert len(cert["components"]) == len(cert["s"]) + 2
    assert cert["all_factor_critical"]


def test_certify_records_a_graph_that_lacks_an_edge_and_goes_on():
    tube = run_cli(["gen-tube", "1"]).stdout  # has the edge 0-1, not 6-7
    r = run_cli(["certify", "--edges", "0-1,6-7"],
                input=cube_bytes() + tube[len(PC.HEADER):])
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["ok"] is False
    cube, lacking = report["graphs"]
    assert cube["extends"] is True
    assert lacking == {"index": 1, "n": 14, "edges": [[0, 1], [6, 7]],
                       "reason": "edge (6, 7) is not in the graph"}


def test_certify_edges_with_a_shared_end_are_a_usage_error():
    r = run_cli(["certify", "--edges", "0-1,1-2"], input=cube_bytes())
    assert r.returncode == 2
    assert r.stdout == b""
    assert b"four distinct ends" in r.stderr


def test_canonical_output():
    r = run_cli(["canonical"], input=cube_bytes())
    assert r.returncode == 0
    codes = json.loads(r.stdout)["codes"]
    assert len(codes) == 1
    bytes.fromhex(codes[0])


def test_enumerate_creates_missing_outdir(tmp_path):
    r = run_cli(["enumerate", "10", "--outdir", str(tmp_path / "fresh" / "dir")])
    assert r.returncode == 0
    assert (tmp_path / "fresh" / "dir" / "fullerenes_n10.plc").exists()


def test_enumerate_writes_catalogue(tmp_path):
    r = run_cli(["enumerate", "12", "--outdir", str(tmp_path)])
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["count"] == 2
    plc = tmp_path / "fullerenes_n12.plc"
    sidecar = tmp_path / "fullerenes_n12.json"
    assert plc.exists() and sidecar.exists()
    graphs = PC.read_file(plc)
    assert len(graphs) == 2
    meta = json.loads(sidecar.read_text())
    assert meta["count"] == 2


def test_enumerate_stdout_pipes_into_validate():
    enum = run_cli(["enumerate", "10", "--stdout"])
    assert enum.returncode == 0
    r = run_cli(["validate"], input=enum.stdout)
    assert r.returncode == 0


def test_verify_all_deterministic_across_jobs():
    a = run_cli(["verify-all", "--nmax", "10"])
    b = run_cli(["verify-all", "--nmax", "10"])
    c = run_cli(["verify-all", "--nmax", "10", "--jobs", "2"])
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    report = json.loads(a.stdout)
    assert report["ok"] is True
    assert all(c["failures"] == 0 for c in report["claims"])


def test_verify_all_cache_roundtrip(tmp_path):
    a = run_cli(["verify-all", "--nmax", "10", "--cache-dir", str(tmp_path)])
    assert a.returncode == 0
    assert (tmp_path / "fullerenes_n8.json").exists()
    b = run_cli(["verify-all", "--nmax", "10", "--cache-dir", str(tmp_path)])
    assert b.stdout == a.stdout


def test_negative_k_is_a_usage_error():
    r = run_cli(["extend-check", "--k", "-1"], input=cube_bytes())
    assert r.returncode == 2
    assert b"k must lie in" in r.stderr


def test_verify_all_jobs_below_one_is_a_usage_error():
    for jobs in ("0", "-2"):
        r = run_cli(["verify-all", "--nmax", "8", "--jobs", jobs])
        assert r.returncode == 2
        assert b"--jobs" in r.stderr
        assert r.stdout == b""


def test_certify_unparsable_edges_is_a_usage_error():
    r = run_cli(["certify", "--edges", "0-x,1-2"], input=cube_bytes())
    assert r.returncode == 2
    assert b"--edges expects" in r.stderr


def test_gen_tube_too_large_writes_nothing(tmp_path):
    r = run_cli(["gen-tube", "42"])  # 260 vertices
    assert r.returncode == 2
    assert r.stdout == b""
    assert b"one-byte limit" in r.stderr
    out = tmp_path / "tube.plc"
    assert run_cli(["gen-tube", "42", "--out", str(out)]).returncode == 2
    assert not out.exists()


def test_gen_tube_too_large_is_refused_before_the_tube_is_built(tmp_path, monkeypatch,
                                                                 capsys):
    from fullex import cli, families

    def build_tube(n_layers):
        raise AssertionError("the tube was built")

    monkeypatch.setattr(families, "build_tube", build_tube)
    out = tmp_path / "tube.plc"
    assert cli.main(["gen-tube", "20000", "--out", str(out)]) == 2
    assert not out.exists()
    assert "120008 vertices exceed the one-byte limit" in capsys.readouterr().err


def test_corrupt_sidecar_is_rewritten(tmp_path):
    sidecar = tmp_path / "fullerenes_n8.json"
    sidecar.write_bytes(b"\x00garbage{")
    r = run_cli(["verify-all", "--nmax", "8", "--cache-dir", str(tmp_path)])
    assert r.returncode == 0
    assert json.loads(sidecar.read_text())["count"] == 1


def test_malformed_cached_certificate_is_reanalysed(tmp_path):
    args = ["verify-all", "--nmax", "14", "--cache-dir", str(tmp_path)]
    first = run_cli(args)
    assert first.returncode == 0
    sidecar = tmp_path / "fullerenes_n10.json"
    data = json.loads(sidecar.read_text())
    key, digest = next((k, d) for k, d in data["digests"].items()
                       if not d["two_extendable"])
    good = digest["certificate"]
    digest["certificate"] = {}
    sidecar.write_text(json.dumps(data))
    r = run_cli(args)
    assert r.returncode == 0
    assert r.stdout == first.stdout
    assert json.loads(sidecar.read_text())["digests"][key]["certificate"] == good


def test_wrong_typed_or_too_deep_sidecar_is_reanalysed(tmp_path):
    args = ["verify-all", "--nmax", "10", "--cache-dir", str(tmp_path)]
    first = run_cli(args)
    assert first.returncode == 0

    def poison(n, edit):
        sidecar = tmp_path / f"fullerenes_n{n}.json"
        data = json.loads(sidecar.read_text())
        (digest,) = data["digests"].values()
        edit(digest)
        sidecar.write_text(json.dumps(data))

    poison(8, lambda d: d.update(p4=None))
    poison(10, lambda d: d["certificate"].update(s_size="3"))
    r = run_cli(args)
    assert (r.returncode, r.stdout) == (0, first.stdout)
    (tmp_path / "fullerenes_n8.json").write_bytes(b"[" * 100000)
    r = run_cli(args)
    assert (r.returncode, r.stdout) == (0, first.stdout)
    # a tampered value of the right type is read, and its claim fails
    poison(8, lambda d: d.update(connectivity=2))
    r = run_cli(args)
    assert r.returncode == 1
    failing = [c["anchor"] for c in json.loads(r.stdout)["claims"] if c["failures"]]
    assert failing == ["connectivity-three"]


def test_no_environment_variable_changes_verify_all(monkeypatch, capsys):
    class Junk(dict):
        """Every variable set, to a value no integer parse accepts."""
        def __getitem__(self, key):
            return "abc"

        def get(self, key, default=None):
            return "abc"

        def __contains__(self, key):
            return True

    from fullex import cli
    assert cli.main(["verify-all", "--nmax", "8"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(os, "environ", Junk())
    assert cli.main(["verify-all", "--nmax", "8"]) == 0
    assert capsys.readouterr().out == plain


def test_vacuous_bound_is_a_usage_error():
    r = run_cli(["verify-all", "--nmax", "6"])
    assert r.returncode == 2
    assert r.stdout == b""
    assert b"outside the enumeration range 8" in r.stderr


def test_version_loads_no_pool_or_dataclasses():
    # -S keeps site hooks out, so sys.modules holds only what fullex loads;
    # the --jobs 2 tests show that the pool still starts when it is needed
    script = ("import sys\n"
              "from fullex import cli\n"
              "assert cli.main(['--version']) == 0\n"
              "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
              " 'dataclasses') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    r = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                       capture_output=True, check=True)
    assert r.stdout.splitlines()[-1] == b"[]"


@pytest.mark.parametrize("command, loads", [
    ("validate", []),
    ("canonical", []),
    ("extend-check", ["fullex.extendability", "fullex.matching"]),
    ("antikekule", ["fullex.antikekule", "fullex.matching"]),
])
def test_each_subcommand_loads_only_its_modules(command, loads, tmp_path):
    batch = tmp_path / "batch.plc"
    batch.write_bytes(cube_bytes())
    script = ("import sys\n"
              "from fullex import cli\n"
              f"assert cli.main([{command!r}, {str(batch)!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('fullex')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    r = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                       capture_output=True, check=True)
    base = ["fullex", "fullex.cli", "fullex.enumerator", "fullex.graphs",
            "fullex.planar_code"]
    assert r.stdout.splitlines()[-1].decode() == str(sorted(base + loads))


def _domain_roots():
    from fullex import (antikekule, enumerator, extendability, families, graphs,
                        matching)
    return [graphs.GraphError, PC.PlanarCodeError, enumerator.EnumerationError,
            matching.MatchingError, extendability.ExtendabilityError,
            antikekule.AntiKekuleError, families.BadLayerCount]


def test_every_value_error_of_the_package_is_a_fullex_error():
    from fullex.graphs import FullexError
    errors = []
    for info in pkgutil.iter_modules(fullex.__path__):
        module = importlib.import_module(f"fullex.{info.name}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__ == module.__name__ and issubclass(cls, ValueError)]
    assert set(_domain_roots()) <= set(errors)
    assert [cls for cls in errors if not issubclass(cls, FullexError)] == []


@pytest.mark.parametrize("error", _domain_roots(), ids=lambda cls: cls.__name__)
def test_every_domain_error_exits_two(error, monkeypatch, capsys):
    from fullex import cli

    def bad_input(args):
        raise error("bad input, not a bug")

    monkeypatch.setattr(cli, "cmd_canonical", bad_input)
    assert cli.main(["canonical"]) == 2
    assert capsys.readouterr().err == "error: bad input, not a bug\n"


def test_internal_error_exits_three(monkeypatch, capsys):
    from fullex import cli

    def broken(args):
        raise ValueError("an internal bug, not bad input")

    monkeypatch.setattr(cli, "cmd_canonical", broken)
    assert cli.main(["canonical"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "an internal bug" in err
