"""Replayable edge streams with exact pass accounting, plus graph generators.

The algorithm layer never holds the whole graph: it sees the input only
through whole passes over the arc stream.  Each undirected edge {u, v}
is delivered as the two directed arcs (u, v) and (v, u), in stored edge
order.  Oracles and invariant checkers, which are allowed to inspect a
snapshot of the graph, use :meth:`EdgeStream.snapshot_edges` instead and
do not consume passes.

A reader that visits only some of the arcs of a pass opens a
:class:`StreamRead` with :meth:`EdgeStream.read`.  That is still one full
pass, counted like any other: the read opens its pass through
:meth:`EdgeStream.iter_arcs_once` and runs it to the end when it closes.
Meanwhile the reader looks up the arc at any stream position and the
positions of any tail's arcs, from an index built on the first read; the
reader picks positions and their order itself.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional, TextIO


class StreamFormatError(ValueError):
    """Raised for malformed edge-list input (bad header, duplicates, loops)."""


@dataclass(frozen=True)
class GraphSpec:
    """Description of a generated graph.

    kind is one of ``path``, ``cycle``, ``complete``, ``petersen``, ``gnm``,
    ``bipartite``.  ``params`` holds the kind-specific sizes; random kinds
    consume ``seed``.  ``str(spec)`` is the text :func:`parse_graph_spec`
    reads back.
    """

    kind: str
    params: tuple[int, ...] = ()
    seed: int = 0

    def __str__(self) -> str:
        body = ",".join(str(p) for p in self.params)
        if self.kind in _SEEDED:
            body += f",seed={self.seed}"
        return f"{self.kind}:{body}" if body else self.kind


class EdgeStream:
    """A replayable, pass-counted source of undirected edges.

    Every completed traversal of the arc sequence counts as one pass,
    whether the caller sees every arc (:meth:`iter_arcs_once`) or only
    chosen ones (:meth:`read`).  Skipped-but-accounted passes (see
    :meth:`charge_passes`) arise when the caller can prove a whole
    traversal would not change its state; the counter then reflects the
    passes the unoptimized reference loop would perform.
    """

    def __init__(self, vertex_count: int, edges: list[tuple[int, int]],
                 source: str = "memory"):
        _validate_simple(vertex_count, edges)
        self.vertex_count = vertex_count
        self.edge_count = len(edges)
        self.source = source
        self.passes_used = 0
        # The graph, stored once as its arcs: (u, v) then (v, u) per edge,
        # so the two arcs of an edge sit at positions p and p ^ 1 and the
        # edges are the arcs at even positions.  Tuples, because the
        # engine's read loops unpack them.
        arcs: list[tuple[int, int]] = []
        for u, v in edges:
            arcs.append((u, v))
            arcs.append((v, u))
        self._arcs = arcs
        # Tail index in CSR form, built by the first read: the arcs with
        # tail x sit at positions _positions[_offsets[x]:_offsets[x + 1]].
        self._offsets: Optional[array] = None
        self._positions: Optional[array] = None
        # True while read() opens its pass.
        self._opening = False

    def iter_arcs_once(self) -> Iterator[tuple[int, int]]:
        """One full pass over the arcs; counts the pass on completion.

        Yields every arc, except when :meth:`read` opens its pass through
        this method: then it yields none, and the read hands out the arcs
        itself.  An abandoned iteration (error mid-pass) does not count.
        """
        return self._pass(() if self._opening else self._arcs)

    def _pass(self, arcs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        for arc in arcs:
            yield arc
        self.passes_used += 1

    def read(self) -> "StreamRead":
        """Open one full pass that visits only the arcs its reader picks;
        the pass counts when the read closes (see :class:`StreamRead`)."""
        if self._offsets is None:
            tails = [u for u, _ in self._arcs]
            counts = [0] * (self.vertex_count + 1)
            for u in tails:
                counts[u + 1] += 1
            self._offsets = array("q", accumulate(counts))
            # A stable sort by tail keeps each tail's positions in stream order.
            self._positions = array("q", sorted(range(len(tails)), key=tails.__getitem__))
        self._opening = True
        try:
            counted = self.iter_arcs_once()
        finally:
            self._opening = False
        return StreamRead(self._arcs, self._offsets, self._positions, counted)

    def pass_count(self) -> int:
        return self.passes_used

    def charge_passes(self, count: int) -> None:
        """Account for ``count`` whole passes whose traversal was provably
        a no-op, without reading them."""
        if count < 0:
            raise ValueError("pass charge must be non-negative")
        self.passes_used += count

    def snapshot_edges(self) -> list[tuple[int, int]]:
        """Edge list copy for oracles and checkers; consumes no pass."""
        return self._arcs[::2]


class StreamRead:
    """One pass of an :class:`EdgeStream` that visits chosen arcs.

    While the read is open, ``arcs[p]`` is the arc at stream position
    ``p`` and :meth:`tail_positions` gives the positions of one tail's
    arcs.  The pass counts once, when :meth:`close` runs; a read abandoned
    without it, say by an error, counts none.
    """

    __slots__ = ("arcs", "_offsets", "_positions", "_pass")

    def __init__(self, arcs: list[tuple[int, int]], offsets: array,
                 positions: array, counted: Iterator[tuple[int, int]]):
        self.arcs = arcs
        self._offsets = offsets
        self._positions = positions
        self._pass = counted

    def tail_positions(self, x: int) -> array:
        """The positions of the arcs whose tail is ``x``, in stream order."""
        return self._positions[self._offsets[x]:self._offsets[x + 1]]

    def close(self) -> None:
        """Run the pass to its end, which counts it."""
        for _ in self._pass:
            pass


def _validate_simple(n: int, edges: Iterable[tuple[int, int]]) -> None:
    if n < 0:
        raise StreamFormatError(f"negative vertex count {n}")
    # An edge's key is the rank of (min, max) in an n-by-n table: one int
    # per edge, where a frozenset would cost over 200 bytes.
    seen: set[int] = set()
    for u, v in edges:
        if u == v:
            raise StreamFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"edge ({u}, {v}) out of range for n={n}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise StreamFormatError(f"duplicate edge {{{u}, {v}}}")
        seen.add(key)


# ---------------------------------------------------------------------------
# Generators.  Same (kind, params, seed) always yields a bit-identical
# edge sequence; all outputs are simple graphs.
# ---------------------------------------------------------------------------

def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Uniform simple graph with n vertices and exactly m edges.

    Each pick is a rank among the pairs (u, v), u < v, in lexicographic
    order; row u holds the n - 1 - u ranks from ``row_start`` on.  The
    picks are sorted, so one cursor walks the rows: O(n + m) in all.
    """
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges for n={n}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    u = row_start = 0
    for i in sorted(rng.sample(range(total), m)):
        while i >= row_start + n - 1 - u:
            row_start += n - 1 - u
            u += 1
        edges.append((u, u + 1 + i - row_start))
    return edges


def bipartite_edges(a: int, b: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Random bipartite graph on parts {0..a-1} and {a..a+b-1} with m edges."""
    total = a * b
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges for parts {a},{b}")
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), m))
    return [(i // b, a + i % b) for i in picks]


# Each generator kind: its parameter count, and the builder that turns
# (seed, *params) into (vertex_count, edges).
_GENERATORS: dict[str, tuple[int, Callable[..., tuple[int, list[tuple[int, int]]]]]] = {
    "path": (1, lambda seed, n: (n, path_edges(n))),
    "cycle": (1, lambda seed, n: (n, cycle_edges(n))),
    "complete": (1, lambda seed, n: (n, complete_edges(n))),
    "petersen": (0, lambda seed: (10, petersen_edges())),
    "gnm": (2, lambda seed, n, m: (n, gnm_edges(n, m, seed))),
    "bipartite": (3, lambda seed, a, b, m: (a + b, bipartite_edges(a, b, m, seed))),
}
_SEEDED = ("gnm", "bipartite")  # the kinds whose builder reads the seed


def _check_params(kind: str, params: tuple[int, ...], seed: int, name: str) -> None:
    """Reject an unknown generator kind, a wrong parameter count, a
    negative size or a seed on a kind that reads none (its ``str`` would
    drop the seed), naming the spec ``name`` in the message."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator spec {name!r}")
    count = _GENERATORS[kind][0]
    if len(params) != count:
        raise ValueError(f"generator spec {name!r} takes {count} size "
                         f"parameter(s), got {len(params)}")
    if any(p < 0 for p in params):
        raise ValueError(f"generator spec {name!r} has a negative size")
    if seed and kind not in _SEEDED:
        raise ValueError(f"generator spec {name!r} takes no seed")


def build_edges(spec: GraphSpec) -> tuple[int, list[tuple[int, int]]]:
    """Materialize the (vertex_count, edges) of a generator spec."""
    _check_params(spec.kind, spec.params, spec.seed, str(spec))
    return _GENERATORS[spec.kind][1](spec.seed, *spec.params)


def open_stream(spec: GraphSpec) -> EdgeStream:
    """Open a fresh stream (passes_used == 0) on the generated graph."""
    n, edges = build_edges(spec)
    return EdgeStream(n, edges, source=str(spec))


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse a ``kind:params`` spec string, e.g. ``gnm:100,300,seed=7``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params: list[int] = []
    seed = 0
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if token.startswith("seed="):
                seed = _spec_int(token[5:], text)
            elif token:
                params.append(_spec_int(token, text))
    _check_params(kind, tuple(params), seed, text)
    return GraphSpec(kind, tuple(params), seed)


def _spec_int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"generator spec {text!r} has a non-integer value "
                         f"{token!r}") from None


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then one normalized edge
# "u v" per line with 0 <= u < v < n, sorted lexicographically.
# ---------------------------------------------------------------------------

def write_edgelist(stream: EdgeStream, fh: TextIO) -> None:
    """Write the graph to the open text file ``fh``: the header 'n m', then
    one 'u v' line per edge with u < v, in sorted order."""
    normalized = sorted((min(u, v), max(u, v)) for u, v in stream.snapshot_edges())
    fh.write(f"{stream.vertex_count} {len(normalized)}\n")
    for u, v in normalized:
        fh.write(f"{u} {v}\n")


def read_edgelist(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the (vertex_count, edges) of an edge-list file, checking its
    format only: the header, the line shapes, integers, ``0 <= u < v < n``
    and the edge count.  :class:`EdgeStream` checks the graph itself, so
    open a file as ``EdgeStream(*read_edgelist(path))``.  Each line is
    parsed as it is read, so the file's text is never held whole."""
    with open(path, "r", encoding="ascii") as fh:
        lines = (ln for ln in map(str.strip, fh) if ln)
        header = next(lines, None)
        if header is None:
            raise StreamFormatError(f"{path}: empty file")
        head = header.split()
        if len(head) != 2:
            raise StreamFormatError(f"{path}: header must be 'n m'")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise StreamFormatError(f"{path}: non-integer header") from exc
        edges: list[tuple[int, int]] = []
        for ln in lines:
            parts = ln.split()
            if len(parts) != 2:
                raise StreamFormatError(f"{path}: bad edge line {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise StreamFormatError(f"{path}: non-integer edge {ln!r}") from exc
            if not (0 <= u < v < n):
                raise StreamFormatError(f"{path}: edge line {ln!r} violates 0 <= u < v < n")
            edges.append((u, v))
    if len(edges) != m:
        raise StreamFormatError(f"{path}: header claims {m} edges, found {len(edges)}")
    return n, edges
