"""Stream layer: generators, arc expansion, pass accounting, edge-list I/O."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch import bench, cli
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
    stream = open_stream(GraphSpec("gnm", (12, 20), 3))
    first = collect_arcs(stream)
    second = collect_arcs(stream)
    assert first == second
    for i in range(0, len(first), 2):
        u, v = first[i]
        assert first[i + 1] == (v, u)


def test_read_positions_pick_the_tails_arcs(monkeypatch):
    stream = open_stream(GraphSpec("gnm", (12, 30), 5))
    every = collect_arcs(stream)
    reads = []
    original = EdgeStream.iter_arcs_once
    monkeypatch.setattr(EdgeStream, "iter_arcs_once",
                        lambda self: reads.append(1) or original(self))
    for tails in ([], [3], [7, 0, 11, 3], range(12)):
        read = stream.read()
        for x in tails:
            # Each tail's positions come in stream order.
            assert [read.arcs[p] for p in read.tail_positions(x)] == \
                [(u, v) for u, v in every if u == x]
        read.close()
    # Each read is one full pass, opened by one iter_arcs_once call.
    assert len(reads) == 4 and stream.pass_count() == 5
    assert collect_arcs(stream) == every


def test_read_partner_positions_give_each_edges_other_arc():
    # The other arc of the edge at position p sits at p ^ 1, so the
    # partners of a tail's positions are the arcs with that head.
    stream = open_stream(GraphSpec("gnm", (12, 30), 5))
    every = collect_arcs(stream)
    read = stream.read()
    for x in range(12):
        partners = [read.arcs[p ^ 1] for p in read.tail_positions(x)]
        assert partners == [(u, v) for u, v in every if v == x]
    read.close()
    assert stream.pass_count() == 2


def test_read_whose_tails_grow_while_open_counts_one_pass():
    stream = open_stream(GraphSpec("cycle", (6,)))
    read = stream.read()
    seen = read.tail_positions(0)
    for x in (1, 2, 3):
        seen.extend(read.tail_positions(x))
    assert [read.arcs[p] for p in sorted(seen)] == \
        [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (0, 5)]
    read.close()
    assert stream.pass_count() == 1
    read.close()
    assert stream.pass_count() == 1


def test_abandoned_selected_pass_is_not_counted():
    stream = open_stream(GraphSpec("path", (4,)))
    read = stream.read()
    assert read.arcs[read.tail_positions(1)[0]] == (1, 0)
    del read  # never closed
    assert stream.pass_count() == 0
    assert collect_arcs(stream) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]


def test_reads_opened_one_after_the_other_share_no_state():
    stream = open_stream(GraphSpec("path", (4,)))
    first = stream.read()
    second = stream.read()
    assert [first.arcs[p] for p in first.tail_positions(1)] == [(1, 0), (1, 2)]
    assert [second.arcs[p] for p in second.tail_positions(3)] == [(3, 2)]
    second.close()
    assert stream.pass_count() == 1
    assert [first.arcs[p] for p in first.tail_positions(2)] == [(2, 1), (2, 3)]
    first.close()
    assert stream.pass_count() == 2
    # A full pass opened after a read yields every arc again.
    assert collect_arcs(stream) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]


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


def test_out_of_range_edge_rejected():
    # A file never gets here: read_edgelist checks 0 <= u < v < n first.
    with pytest.raises(StreamFormatError, match=r"edge \(0, 3\) out of range for n=3"):
        EdgeStream(3, [(0, 3)])


def test_gnm_deterministic_and_simple():
    a = gnm_edges(20, 40, seed=7)
    b = gnm_edges(20, 40, seed=7)
    assert a == b
    assert len(a) == 40
    assert len({frozenset(e) for e in a}) == 40
    assert all(u != v for u, v in a)


def unrank_pair(index, n):
    """Pair of rank ``index`` among the pairs (u, v), u < v < n, in
    lexicographic order, by subtracting whole rows."""
    u = 0
    while index >= n - 1 - u:
        index -= n - 1 - u
        u += 1
    return u, u + 1 + index


def test_gnm_edges_follow_the_rank_closed_form():
    for n in range(2, 14):
        total = n * (n - 1) // 2
        assert gnm_edges(n, total, seed=0) == [unrank_pair(i, n) for i in range(total)]
        for seed in range(6):
            for m in (0, 1, total // 3, total - 1):
                picks = sorted(random.Random(seed).sample(range(total), m))
                assert gnm_edges(n, m, seed) == [unrank_pair(i, n) for i in picks]


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
    n, edges = build_edges(GraphSpec("bipartite", (4, 6, 10), 1))
    assert n == 10
    assert len(edges) == 10
    for u, v in edges:
        assert u < 4 <= v


def write_to(stream, target):
    with open(target, "w", encoding="ascii") as fh:
        write_edgelist(stream, fh)


def test_write_edgelist_path_bytes(tmp_path):
    target = tmp_path / "p3.edgelist"
    write_to(open_stream(GraphSpec("path", (3,))), target)
    assert target.read_text() == "3 2\n0 1\n1 2\n"


def test_write_edgelist_cycle_bytes(tmp_path):
    target = tmp_path / "c3.edgelist"
    write_to(open_stream(GraphSpec("cycle", (3,))), target)
    assert target.read_text() == "3 3\n0 1\n0 2\n1 2\n"


def test_round_trip_path_identical_arcs(tmp_path):
    target = tmp_path / "p5.edgelist"
    original = open_stream(GraphSpec("path", (5,)))
    write_to(original, target)
    reopened = EdgeStream(*read_edgelist(str(target)))
    assert collect_arcs(reopened) == collect_arcs(original)


def test_round_trip_write_is_idempotent(tmp_path):
    first = tmp_path / "a.edgelist"
    second = tmp_path / "b.edgelist"
    write_to(open_stream(GraphSpec("cycle", (5,))), first)
    write_to(EdgeStream(*read_edgelist(str(first))), second)
    assert first.read_text() == second.read_text()


def test_round_trip_preserves_edge_set(tmp_path):
    target = tmp_path / "g.edgelist"
    stream = open_stream(GraphSpec("gnm", (15, 30), 11))
    write_to(stream, target)
    n, edges = read_edgelist(str(target))
    assert n == 15
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in stream.snapshot_edges()}


def test_file_order_is_stream_order(tmp_path):
    target = tmp_path / "ordered.edgelist"
    target.write_text("4 3\n1 2\n0 1\n2 3\n")
    stream = EdgeStream(*read_edgelist(str(target)))
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
    ("x 1\n0 1\n", "non-integer header"),
    ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
    ("-3 0\n", "negative vertex count -3"),
])
def test_malformed_files_rejected(tmp_path, content, message, capsys):
    # read_edgelist checks the format; the duplicate and the negative
    # vertex count are left to EdgeStream, which checks every graph.  The
    # command line exits 1 with the message.
    target = tmp_path / "bad.edgelist"
    target.write_text(content)
    with pytest.raises(StreamFormatError, match=message):
        EdgeStream(*read_edgelist(str(target)))
    assert cli.main(["run", "--input", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err


def test_read_edgelist_parses_each_line_as_it_reads_it(tmp_path):
    # The file's lines and the edge list are never alive at once, so the
    # peak is hardly above what the result holds (1.65 times it when every
    # line was held before any was parsed).
    target = tmp_path / "g.edgelist"
    write_to(open_stream(GraphSpec("gnm", (10000, 20000), 1)), target)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        n, edges = read_edgelist(str(target))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (n, len(edges)) == (10000, 20000)
    assert peak <= 1.2 * held


def test_edge_stream_rejects_negative_vertex_count():
    with pytest.raises(StreamFormatError, match="negative vertex count -1"):
        EdgeStream(-1, [])


def test_parse_graph_spec_forms():
    assert parse_graph_spec("path:4") == GraphSpec("path", (4,))
    assert parse_graph_spec("gnm:100,300,seed=7") == GraphSpec("gnm", (100, 300), 7)
    assert parse_graph_spec("petersen") == GraphSpec("petersen")
    assert parse_graph_spec("bipartite:3,4,5,seed=2") == GraphSpec(
        "bipartite", (3, 4, 5), 2)
    assert parse_graph_spec("path:0") == GraphSpec("path", (0,))
    for text, message in [("torus:3", "unknown"), ("gnm:5", "takes 2"),
                          ("bipartite:3,4", "takes 3"), ("path", "takes 1"),
                          ("petersen:3", "takes 0"), ("path:-3", "negative"),
                          ("gnm:5,x", "non-integer value 'x'"),
                          ("gnm:5,7,seed=y", "non-integer value 'y'"),
                          ("random-gnm:10,20", "unknown"),
                          ("random-bipartite:3,4,5", "unknown"),
                          ("path:4,seed=3", "seed"), ("petersen:seed=1", "seed")]:
        with pytest.raises(ValueError, match=message) as info:
            parse_graph_spec(text)
        assert repr(text) in str(info.value)


def test_spec_string_parses_back_to_the_spec():
    specs = bench.corpus()
    assert {spec.kind for spec in specs} == {
        "path", "cycle", "complete", "petersen", "gnm", "bipartite"}
    for spec in specs:
        assert parse_graph_spec(str(spec)) == spec
