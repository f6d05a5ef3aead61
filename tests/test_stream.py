"""Stream layer: generators, arc expansion, pass accounting, edge-list I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch.stream import (EdgeStream, GraphSpec, StreamFormatError,
                                build_edges, gnm_edges, open_stream,
                                parse_graph_spec, read_edgelist, write_edgelist)


def collect_arcs(stream):
    return list(stream.iter_arcs_once())


def test_path_generator():
    stream = open_stream(GraphSpec("path", (4,)))
    assert stream.vertex_count == 4
    assert stream.snapshot_edges() == [(0, 1), (1, 2), (2, 3)]
    assert stream.edge_count == 3


def test_cycle_generator():
    stream = open_stream(GraphSpec("cycle", (5,)))
    assert stream.snapshot_edges() == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert stream.edge_count == 5


def test_petersen_counts():
    stream = open_stream(GraphSpec("petersen"))
    assert stream.vertex_count == 10
    assert stream.edge_count == 15


def test_fresh_stream_has_zero_passes():
    assert open_stream(GraphSpec("path", (4,))).pass_count() == 0


def test_arc_expansion_single_edge():
    stream = open_stream(GraphSpec("path", (2,)))
    assert collect_arcs(stream) == [(0, 1), (1, 0)]


def test_arc_expansion_source_order():
    stream = open_stream(GraphSpec("path", (3,)))
    assert collect_arcs(stream) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_pass_counter_increments_per_traversal():
    stream = open_stream(GraphSpec("cycle", (4,)))
    collect_arcs(stream)
    collect_arcs(stream)
    assert stream.pass_count() == 2


def test_replay_determinism_and_arc_pairing():
    stream = open_stream(GraphSpec("random-gnm", (12, 20), 3))
    first = collect_arcs(stream)
    second = collect_arcs(stream)
    assert first == second
    for i in range(0, len(first), 2):
        u, v = first[i]
        assert first[i + 1] == (v, u)


def test_abandoned_pass_is_not_counted():
    stream = open_stream(GraphSpec("path", (4,)))
    it = stream.iter_arcs_once()
    next(it)
    it.close()
    assert stream.pass_count() == 0


def test_charge_passes():
    stream = open_stream(GraphSpec("path", (3,)))
    stream.charge_passes(5)
    assert stream.pass_count() == 5
    with pytest.raises(ValueError):
        stream.charge_passes(-1)


def test_self_loop_rejected():
    with pytest.raises(StreamFormatError):
        EdgeStream(3, [(0, 0)])


def test_duplicate_edge_rejected():
    with pytest.raises(StreamFormatError):
        EdgeStream(3, [(0, 1), (1, 0)])


def test_gnm_deterministic_and_simple():
    a = gnm_edges(20, 40, seed=7)
    b = gnm_edges(20, 40, seed=7)
    assert a == b
    assert len(a) == 40
    assert len({frozenset(e) for e in a}) == 40
    assert all(u != v for u, v in a)


def test_gnm_rejects_too_many_edges():
    with pytest.raises(ValueError):
        gnm_edges(4, 7, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.data())
def test_gnm_simplicity_property(n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    seed = data.draw(st.integers(0, 2**63 - 1))
    edges = gnm_edges(n, m, seed)
    assert len(edges) == m
    seen = set()
    for u, v in edges:
        assert 0 <= u < v < n
        assert (u, v) not in seen
        seen.add((u, v))


def test_bipartite_generator_sides():
    n, edges = build_edges(GraphSpec("random-bipartite", (4, 6, 10), 1))
    assert n == 10
    assert len(edges) == 10
    for u, v in edges:
        assert u < 4 <= v


def test_write_edgelist_path_bytes(tmp_path):
    target = tmp_path / "p3.edgelist"
    write_edgelist(open_stream(GraphSpec("path", (3,))), str(target))
    assert target.read_text() == "3 2\n0 1\n1 2\n"


def test_write_edgelist_cycle_bytes(tmp_path):
    target = tmp_path / "c3.edgelist"
    write_edgelist(open_stream(GraphSpec("cycle", (3,))), str(target))
    assert target.read_text() == "3 3\n0 1\n0 2\n1 2\n"


def test_round_trip_path_identical_arcs(tmp_path):
    target = tmp_path / "p5.edgelist"
    original = open_stream(GraphSpec("path", (5,)))
    write_edgelist(original, str(target))
    reopened = open_stream(GraphSpec("edgelist-file", path=str(target)))
    assert collect_arcs(reopened) == collect_arcs(original)


def test_round_trip_write_is_idempotent(tmp_path):
    first = tmp_path / "a.edgelist"
    second = tmp_path / "b.edgelist"
    write_edgelist(open_stream(GraphSpec("cycle", (5,))), str(first))
    write_edgelist(open_stream(GraphSpec("edgelist-file", path=str(first))),
                   str(second))
    assert first.read_text() == second.read_text()


def test_round_trip_preserves_edge_set(tmp_path):
    target = tmp_path / "g.edgelist"
    stream = open_stream(GraphSpec("random-gnm", (15, 30), 11))
    write_edgelist(stream, str(target))
    n, edges = read_edgelist(str(target))
    assert n == 15
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in stream.snapshot_edges()}


def test_file_order_is_stream_order(tmp_path):
    target = tmp_path / "ordered.edgelist"
    target.write_text("4 3\n1 2\n0 1\n2 3\n")
    stream = open_stream(GraphSpec("edgelist-file", path=str(target)))
    assert stream.snapshot_edges() == [(1, 2), (0, 1), (2, 3)]


@pytest.mark.parametrize("content,message", [
    ("", "empty"),
    ("3\n0 1\n", "header"),
    ("3 2\n0 1\n", "claims"),
    ("3 1\n0 0\n", "0 <= u < v < n"),
    ("3 1\n2 1\n", "0 <= u < v < n"),
    ("3 2\n0 1\n0 1\n", "duplicate"),
    ("3 1\n0 9\n", "0 <= u < v < n"),
    ("3 1\nx y\n", "non-integer"),
])
def test_malformed_files_rejected(tmp_path, content, message):
    target = tmp_path / "bad.edgelist"
    target.write_text(content)
    with pytest.raises(StreamFormatError, match=message):
        read_edgelist(str(target))


def test_parse_graph_spec_forms():
    assert parse_graph_spec("path:4") == GraphSpec("path", (4,))
    assert parse_graph_spec("gnm:100,300,seed=7") == GraphSpec("random-gnm", (100, 300), 7)
    assert parse_graph_spec("petersen") == GraphSpec("petersen")
    assert parse_graph_spec("bipartite:3,4,5,seed=2") == GraphSpec(
        "random-bipartite", (3, 4, 5), 2)
    with pytest.raises(ValueError):
        parse_graph_spec("torus:3")
