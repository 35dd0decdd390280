"""Binary planar_code interchange format.

Layout: the ASCII header ``>>planar_code<<`` once per file, then for each
graph one byte with the vertex count n (n <= MAX_ORDER) followed, for every
vertex 1..n, by its neighbors in rotation order as 1-based bytes and a
terminating 0 byte.  Writing then reading is byte-identical.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterable, Iterator

from .graphs import FullexError, PlaneCubicGraph, from_rotation

HEADER = b">>planar_code<<"
MAX_ORDER = 255


class PlanarCodeError(FullexError):
    pass


def check_order(n: int) -> None:
    """Refuse an order that the one-byte vertex count cannot hold."""
    if n > MAX_ORDER:
        raise PlanarCodeError(f"{n} vertices exceed the one-byte limit")


def encode_graph(g: PlaneCubicGraph) -> bytes:
    out = bytearray([g.n])
    for v in range(g.n):
        out.extend(w + 1 for w in g.rot[v])
        out.append(0)
    return bytes(out)


def write_graphs(fh: BinaryIO, graphs: Iterable[PlaneCubicGraph]) -> int:
    """Write the header and every graph; nothing is written if one is too big."""
    graphs = list(graphs)
    for g in graphs:
        check_order(g.n)
    fh.write(HEADER)
    for g in graphs:
        fh.write(encode_graph(g))
    return len(graphs)


def write_file(path, graphs: Iterable[PlaneCubicGraph]) -> int:
    """Like ``write_graphs``; the file is not touched if a graph is too big."""
    buf = io.BytesIO()
    count = write_graphs(buf, graphs)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())
    return count


def read_graphs(data: bytes) -> Iterator[PlaneCubicGraph]:
    if not data.startswith(HEADER):
        raise PlanarCodeError("missing >>planar_code<< header")
    pos = len(HEADER)
    while pos < len(data):
        n = data[pos]
        pos += 1
        if n == 0:
            raise PlanarCodeError("graph with zero vertices")
        rot = []
        for v in range(n):
            nbrs = []
            while True:
                if pos >= len(data):
                    raise PlanarCodeError("truncated planar_code record")
                b = data[pos]
                pos += 1
                if b == 0:
                    break
                nbrs.append(b - 1)
            rot.append(tuple(nbrs))
        yield from_rotation(n, rot)


def read_file(path) -> list[PlaneCubicGraph]:
    with open(path, "rb") as fh:
        return list(read_graphs(fh.read()))
