"""graph6 codec (short form, n <= 62).

Layout: one header byte with value n + 63, then the upper triangle of the
adjacency matrix in column order x(0,1), x(0,2), x(1,2), x(0,3), ... packed
six bits per byte, each byte offset by 63, zero padded.  Encoding always
emits the canonical minimal-length form.  Decode errors carry the byte
offset at which the problem was detected.
"""

from __future__ import annotations

from .graphs import Graph

_PREFIX = ">>graph6<<"
_SHORT_MAX = 62  # the most vertices a one-byte header holds


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


def _edge_bit_count(n: int) -> int:
    return n * (n - 1) // 2


def from_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string (optional '>>graph6<<' prefix)."""
    if text.startswith(_PREFIX):
        text = text[len(_PREFIX):]
    text = text.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("long form (n > 62) not supported", 0)
    if not 63 <= head <= 125:
        raise Graph6Error(f"header byte {head} outside printable range", 0)
    n = head - 63
    need = (_edge_bit_count(n) + 5) // 6
    if len(text) - 1 < need:
        raise Graph6Error(
            f"truncated edge stream: need {need} bytes, found {len(text) - 1}",
            len(text),
        )
    if len(text) - 1 > need:
        raise Graph6Error("trailing bytes after edge stream", 1 + need)
    bits = 0
    for i, ch in enumerate(text[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"edge byte {ord(ch)} outside printable range", i)
        bits = bits << 6 | val
    bits >>= 6 * need - _edge_bit_count(n)  # drop padding

    adj = [0] * n
    pos = _edge_bit_count(n)
    for col in range(1, n):
        for row in range(col):
            pos -= 1
            if bits >> pos & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
    return Graph(adj)


def to_graph6(g: Graph) -> str:
    """Canonical short-form encoding of a graph on at most 62 vertices."""
    if g.n > _SHORT_MAX:
        raise Graph6Error(f"cannot encode {g.n} vertices in short form")
    bits = 0
    for col in range(1, g.n):
        for row in range(col):
            bits = bits << 1 | (g.adj[row] >> col & 1)
    nbits = _edge_bit_count(g.n)
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    out = [chr(g.n + 63)]
    for k in range(nbits + pad - 6, -6, -6):
        out.append(chr((bits >> k & 0x3F) + 63))
    return "".join(out)


def _finding_graph(g: Graph) -> dict:
    """The fields that name ``g`` in a finding: its graph6 string, or, on
    more vertices than the short form holds, its order and edge list."""
    if g.n > _SHORT_MAX:
        return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    return {"graph6": to_graph6(g)}
