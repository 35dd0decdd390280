import io

import pytest

from fullex import planar_code as PC
from fullex import graphs as G
from fullex.families import build_tube

from conftest import catalogue


def roundtrip(graphs):
    buf = io.BytesIO()
    PC.write_graphs(buf, graphs)
    return buf.getvalue()


def test_roundtrip_byte_identical(cube, dodecahedron):
    graphs = [cube, dodecahedron, build_tube(2)[0]]
    data = roundtrip(graphs)
    back = list(PC.read_graphs(data))
    assert roundtrip(back) == data
    for g, h in zip(graphs, back):
        assert g.rot == h.rot


def test_header_and_layout(cube):
    data = roundtrip([cube])
    assert data.startswith(b">>planar_code<<")
    body = data[len(PC.HEADER):]
    assert body[0] == 8
    # neighbors are 1-based bytes, each vertex record 0-terminated
    assert body[1:5] == bytes([cube.rot[0][0] + 1, cube.rot[0][1] + 1,
                               cube.rot[0][2] + 1, 0])
    assert len(body) == 1 + 8 * 4


def test_catalogue_roundtrip(tmp_path):
    cat = catalogue(12)
    path = tmp_path / "fullerenes_n12.plc"
    PC.write_file(path, cat.graphs)
    back = PC.read_file(path)
    assert [g.rot for g in back] == [g.rot for g in cat.graphs]
    with open(path, "rb") as fh:
        original = fh.read()
    buf = io.BytesIO()
    PC.write_graphs(buf, back)
    assert buf.getvalue() == original


def test_missing_header():
    with pytest.raises(PC.PlanarCodeError):
        list(PC.read_graphs(b"no header here"))


def test_truncated_record(cube):
    data = roundtrip([cube])
    with pytest.raises(PC.PlanarCodeError):
        list(PC.read_graphs(data[:-2]))


def test_invalid_graph_rejected():
    # header plus a 4-vertex record that is not symmetric
    data = PC.HEADER + bytes([4, 2, 3, 4, 0, 1, 3, 4, 0, 1, 2, 4, 0, 1, 1, 2, 0])
    with pytest.raises(G.GraphError):
        list(PC.read_graphs(data))
