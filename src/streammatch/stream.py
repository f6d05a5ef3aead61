"""Replayable edge streams with exact pass accounting, plus graph generators.

The algorithm layer never holds the whole graph: it sees the input only
through whole passes over the arc stream.  Each undirected edge {u, v}
is delivered as the two directed arcs (u, v) and (v, u), in stored edge
order.  Oracles and invariant checkers, which are allowed to inspect a
snapshot of the graph, use :meth:`EdgeStream.snapshot_edges` instead and
do not consume passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional


class StreamFormatError(ValueError):
    """Raised for malformed edge-list input (bad header, duplicates, loops)."""


@dataclass(frozen=True)
class GraphSpec:
    """Description of a graph source: a file or a named generator.

    kind is one of ``edgelist-file``, ``path``, ``cycle``, ``complete``,
    ``petersen``, ``random-gnm``, ``random-bipartite``.  ``params`` holds the
    kind-specific sizes; random kinds consume ``seed``.
    """

    kind: str
    params: tuple[int, ...] = ()
    seed: int = 0
    path: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "edgelist-file":
            return f"file:{self.path}"
        body = ",".join(str(p) for p in self.params)
        if self.kind in ("random-gnm", "random-bipartite"):
            body += f",seed={self.seed}"
        return f"{self.kind}:{body}" if body else self.kind


class EdgeStream:
    """A replayable, pass-counted source of undirected edges.

    Every completed traversal of the arc sequence counts as one pass.
    Skipped-but-accounted passes (see :meth:`charge_passes`) arise when the
    caller can prove a traversal would not change its state; the counter
    then reflects the passes the unoptimized reference loop would perform.
    """

    def __init__(self, vertex_count: int, edges: list[tuple[int, int]],
                 source: str = "memory"):
        _validate_simple(vertex_count, edges)
        self.vertex_count = vertex_count
        self.edge_count = len(edges)
        self.source = source
        self.passes_used = 0
        self._edges = list(edges)
        # Pre-expanded arc list: (u, v) then (v, u) per stored edge.
        arcs: list[tuple[int, int]] = []
        for u, v in self._edges:
            arcs.append((u, v))
            arcs.append((v, u))
        self._arcs = arcs

    def iter_arcs_once(self) -> Iterator[tuple[int, int]]:
        """Yield every arc of one full pass; counts the pass on completion.

        An abandoned iteration (error mid-pass) does not count.
        """
        for arc in self._arcs:
            yield arc
        self.passes_used += 1

    def pass_count(self) -> int:
        return self.passes_used

    def charge_passes(self, count: int) -> None:
        """Account for ``count`` passes whose traversal was provably a no-op."""
        if count < 0:
            raise ValueError("pass charge must be non-negative")
        self.passes_used += count

    def snapshot_edges(self) -> list[tuple[int, int]]:
        """Edge list copy for oracles and checkers; consumes no pass."""
        return list(self._edges)


def _validate_simple(n: int, edges: Iterable[tuple[int, int]]) -> None:
    seen: set[frozenset[int]] = set()
    for u, v in edges:
        if u == v:
            raise StreamFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(f"edge ({u}, {v}) out of range for n={n}")
        key = frozenset((u, v))
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


def _unrank_pair(index: int, n: int) -> tuple[int, int]:
    # Pairs (u, v) with u < v ordered lexicographically.
    u = 0
    remaining = index
    while remaining >= n - 1 - u:
        remaining -= n - 1 - u
        u += 1
    return u, u + 1 + remaining


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Uniform simple graph with n vertices and exactly m edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges for n={n}")
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), m))
    return [_unrank_pair(i, n) for i in picks]


def bipartite_edges(a: int, b: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Random bipartite graph on parts {0..a-1} and {a..a+b-1} with m edges."""
    total = a * b
    if m > total:
        raise ValueError(f"m={m} exceeds the {total} possible edges for parts {a},{b}")
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), m))
    return [(i // b, a + i % b) for i in picks]


_GENERATORS: dict[str, Callable[..., list[tuple[int, int]]]] = {
    "path": lambda n: path_edges(n),
    "cycle": lambda n: cycle_edges(n),
    "complete": lambda n: complete_edges(n),
}


def build_edges(spec: GraphSpec) -> tuple[int, list[tuple[int, int]]]:
    """Materialize the (vertex_count, edges) of a generator spec."""
    kind = spec.kind
    if kind in _GENERATORS:
        (n,) = spec.params
        return n, _GENERATORS[kind](n)
    if kind == "petersen":
        return 10, petersen_edges()
    if kind == "random-gnm":
        n, m = spec.params
        return n, gnm_edges(n, m, spec.seed)
    if kind == "random-bipartite":
        a, b, m = spec.params
        return a + b, bipartite_edges(a, b, m, spec.seed)
    if kind == "edgelist-file":
        assert spec.path is not None
        return read_edgelist(spec.path)
    raise ValueError(f"unknown graph kind {kind!r}")


def open_stream(spec: GraphSpec) -> EdgeStream:
    """Open a fresh stream (passes_used == 0) for the given source.

    File input is validated: header consistency, vertex range, no
    self-loops, no duplicate edges.
    """
    n, edges = build_edges(spec)
    return EdgeStream(n, edges, source=str(spec))


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse a ``kind:params`` spec string, e.g. ``gnm:100,300,seed=7``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    alias = {"gnm": "random-gnm", "bipartite": "random-bipartite"}
    kind = alias.get(kind, kind)
    params: list[int] = []
    seed = 0
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if token.startswith("seed="):
                seed = int(token[5:])
            elif token:
                params.append(int(token))
    if kind == "petersen":
        return GraphSpec("petersen")
    if kind in ("path", "cycle", "complete", "random-gnm", "random-bipartite"):
        return GraphSpec(kind, tuple(params), seed)
    raise ValueError(f"unknown generator spec {text!r}")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then one normalized edge
# "u v" per line with 0 <= u < v < n, sorted lexicographically.
# ---------------------------------------------------------------------------

def write_edgelist(stream_or_edges, path: str, vertex_count: Optional[int] = None) -> None:
    if isinstance(stream_or_edges, EdgeStream):
        n = stream_or_edges.vertex_count
        edges = stream_or_edges.snapshot_edges()
    else:
        if vertex_count is None:
            raise ValueError("vertex_count required when passing a raw edge list")
        n = vertex_count
        edges = list(stream_or_edges)
    normalized = sorted((min(u, v), max(u, v)) for u, v in edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(normalized)}\n")
        for u, v in normalized:
            fh.write(f"{u} {v}\n")


def read_edgelist(path: str) -> tuple[int, list[tuple[int, int]]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise StreamFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise StreamFormatError(f"{path}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise StreamFormatError(f"{path}: non-integer header") from exc
    body = lines[1:]
    if len(body) != m:
        raise StreamFormatError(f"{path}: header claims {m} edges, found {len(body)}")
    edges: list[tuple[int, int]] = []
    for ln in body:
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
    _validate_simple(n, edges)  # duplicate detection
    return n, edges
