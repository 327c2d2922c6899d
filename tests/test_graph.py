"""Graph container, parser, serializer, and generators."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_biconnect import (
    BipartiteGraph,
    IllegalEdge,
    ParseError,
    add_edges,
    build_graph,
    parse_graph,
    serialize_graph,
)
from bipartite_biconnect.errors import BipartitenessViolation
from bipartite_biconnect.graph import (
    _parse_lines,
    broom_graph,
    caterpillar_graph,
    cycle_graph,
    generate_instance,
    path_graph,
    random_bipartite,
    spider_graph,
)

from .helpers import mixed_graph, random_graph


def test_vertices_take_first_appearance_order(p4):
    assert list(p4.labels) == ["a1", "a2", "b1", "b2"]
    assert list(p4.sides) == [0, 0, 1, 1]
    assert p4.n == 4 and p4.m == 3


def test_edges_stored_a_side_first(p4):
    for u, v in p4.edges:
        assert p4.sides[u] == 0 and p4.sides[v] == 1


def _assert_rows_sorted(g):
    neighbours: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    assert [list(row) for row in g.adj] == [sorted(nb) for nb in neighbours]


def test_adjacency_is_sorted(p4):
    _assert_rows_sorted(p4)
    rng = random.Random(31)
    for _ in range(200):
        _assert_rows_sorted(random_graph(rng, rng.randint(1, 7), rng.randint(1, 7), 0.4))
        # sides interleave here, so B ids also fall below A ids
        _assert_rows_sorted(mixed_graph(rng, rng.randint(4, 14), 0.6, rng.randint(0, 4)))


def test_degrees(p4):
    by_label = {p4.labels[v]: p4.degree(v) for v in range(p4.n)}
    assert by_label == {"a1": 1, "a2": 2, "b1": 2, "b2": 1}


def test_semantic_equality_ignores_edge_input_order():
    g1 = build_graph(["a1"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2")])
    g2 = build_graph(["a1"], ["b1", "b2"], [("a1", "b2"), ("a1", "b1")])
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_parse_round_trip(p4):
    assert parse_graph(serialize_graph(p4)) == p4


def test_parse_accepts_comments_and_blank_lines():
    text = """
# leading comment
A a1 a2

B b1
# mid comment
E a1 b1
"""
    g = parse_graph(text)
    assert list(g.labels) == ["a1", "a2", "b1"]
    assert g.m == 1


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(ParseError, match="declared twice"):
        parse_graph("A a1\nA a1\nB b1\n")


def test_parse_rejects_unknown_endpoint():
    with pytest.raises(ParseError, match="undeclared"):
        parse_graph("A a1\nB b1\nE a1 b9\n")


def test_parse_rejects_same_side_edge():
    with pytest.raises(ParseError):
        parse_graph("A a1 a2\nB b1\nE a1 a2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "A a1\nB b1\nE a1 b1\nE a1 b1\n",
            "line 4: duplicate edge 'a1' 'b1'",
            id="adjacent",
        ),
        # a2 b2 repeats first although a1 b1 sorts first
        pytest.param(
            "A a1 a2\nB b1 b2\nE a2 b2\nE a1 b1\nE a1 b2\n# E a2 b2\n\n"
            "E a2 b1\nE a2 b2\nE a1 b1\n",
            "line 9: duplicate edge 'a2' 'b2'",
            id="far-apart",
        ),
        pytest.param(
            "A a1\nB b1 b2\nE a1 b1\nE a1 b2\nE b1 a1\n",
            "line 5: duplicate edge 'b1' 'a1'",
            id="b-first",
        ),
        # a triple repeat names the first line that repeats
        pytest.param(
            "A a1\nB b1\nE a1 b1\nE a1 b1\nE b1 a1\n",
            "line 4: duplicate edge 'a1' 'b1'",
            id="triple",
        ),
    ],
)
def test_parse_rejects_repeated_edge(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param(
            "A a1\n\n  B  \n", ParseError, "line 3: empty B directive", id="empty"
        ),
        pytest.param(
            "A a1 a2\nB b1\n# A a2\nA a3 a2\n",
            ParseError,
            "line 4: vertex 'a2' declared twice",
            id="declared-twice",
        ),
        pytest.param(
            "A a1\nB b1 a1\n",
            BipartitenessViolation,
            "line 2: vertex 'a1' declared on both sides",
            id="both-sides",
        ),
        pytest.param(
            "A a1\nB b1 b2\nE a1 b1\nE a1 b2 b1\n",
            ParseError,
            "line 4: E takes exactly two vertex ids",
            id="arity",
        ),
        # a label declared only after the edge that names it
        pytest.param(
            "A a1\nE a1 b1\nB b1\n",
            ParseError,
            "line 2: edge references undeclared vertex 'b1'",
            id="undeclared",
        ),
        pytest.param(
            "A a1 a2\nB b1\n\nE a1 b1\nE a2 a1\n",
            BipartitenessViolation,
            "line 5: edge 'a2' 'a1' joins vertices on the same side",
            id="same-side",
        ),
        # a repeat earlier in the text is reported after the other fault
        pytest.param(
            "A a1\nB b1\nE a1 b1\nE b1 a1\nX a1\n",
            ParseError,
            "line 5: unknown directive 'X'",
            id="unknown-directive",
        ),
    ],
)
def test_parse_names_each_fault_and_its_line(text, error, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_build_graph_rejects_repeated_pair():
    with pytest.raises(ParseError, match="duplicate edge"):
        build_graph(["a1", "a2"], ["b1"], [("a1", "b1"), ("a2", "b1"), ("a1", "b1")])


def test_constructor_rejects_a_side_other_than_0_or_1():
    # a bad side is the caller's error, not a solver fault found later
    labels = ["a1", "a2", "c1", "c2", "c3"]
    edges = [(0, 2), (0, 3), (1, 3), (1, 4)]
    with pytest.raises(ValueError, match="vertex 'c1' has side 2, not 0 or 1"):
        BipartiteGraph(labels, [0, 0, 2, 2, 2], edges)
    with pytest.raises(ValueError, match="labels and sides length mismatch"):
        BipartiteGraph(labels, [0, 0, 1, 1], edges)


@pytest.mark.parametrize("kind", ["spider", "caterpillar", "random"])
def test_parse_peak_memory_per_edge(kind):
    # the edge tuple and the rows are the only edge store; a set of all
    # edges beside them pushes the peak past 700 B per edge
    text = serialize_graph(generate_instance(kind, 20_000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / g.m < 600


def test_parse_rejects_bad_directive():
    with pytest.raises(ParseError):
        parse_graph("X a1\n")


def _outcome(parse, text):
    """What a parser makes of text: the graph's fields, or the exception's
    class and message."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.labels, g.sides, g.edges, g.adj, g.label_index


# each maps the graph's A and B labels to the lines of one injected
# fault, which go into the text together
_FAULTS = [
    # an empty directive
    lambda a, b: st.sampled_from([["A"], ["B"], ["  A  "]]),
    # a label repeated on one side, also within one line
    lambda a, b: st.sampled_from([[f"A {a[-1]}"], [f"B x {b[0]} x"], ["A z z"]]),
    # a label declared on both sides
    lambda a, b: st.sampled_from([[f"B {a[0]}"], [f"A y {b[-1]}"], ["A # b0"]]),
    # an E line with too few or too many labels
    lambda a, b: st.sampled_from([["E"], [f"E {a[0]}"]]),
    lambda a, b: st.sampled_from([[f"E {a[0]} {b[0]} {b[-1]}"], ["A p", "B q", "E q p x"]]),
    # an undeclared label, or one that a later line declares
    lambda a, b: st.sampled_from([[f"E {a[0]} nobody"], [f"E nobody {b[0]}"]]),
    lambda a, b: st.sampled_from([["E a0 late", "B late"], ["A late", "E late b0"]]),
    # a same-side edge
    lambda a, b: st.sampled_from([[f"E {a[0]} {a[-1]}"], [f"E {b[-1]} {b[0]}"]]),
    # one edge twice, in either orientation
    lambda a, b: st.tuples(st.sampled_from(a), st.sampled_from(b), st.booleans()).map(
        lambda t: [f"E {t[0]} {t[1]}", f"E {t[0]} {t[1]}" if t[2] else f"E {t[1]} {t[0]}"]
    ),
    # an unknown directive
    lambda a, b: st.sampled_from([["X a0"], ["e a0 b0"], ["AB a0"]]),
    # comments and blank lines, which are no fault
    lambda a, b: st.sampled_from([["#"], ["# E a0 b0"], ["#A a0"], [""], ["   "], ["\t# c"]]),
]


@st.composite
def _faulty_texts(draw):
    """A small graph's text, its edges written either way round, with up
    to two injected faults (mostly one) and random blanks around each
    line."""
    a = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    b = [f"b{j}" for j in range(draw(st.integers(1, 3)))]
    cells = st.tuples(st.sampled_from(a), st.sampled_from(b))
    lines = ["A " + " ".join(a), "B " + " ".join(b)]
    # half the graphs repeat an edge of their own
    for x, y in draw(st.lists(cells, unique=draw(st.booleans()), max_size=6)):
        lines.append(f"E {x} {y}" if draw(st.booleans()) else f"E {y} {x}")
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(draw(st.sampled_from(_FAULTS))(a, b))
    pad = st.sampled_from(["", "", " ", "\t"])
    lines = [draw(pad) + line + draw(pad) for line in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"])
    )


@settings(max_examples=600, deadline=None)
@given(_faulty_texts())
def test_parse_agrees_with_the_line_reader(text):
    # the fast pass hands every fault to the line reader, so both must
    # return the same graph or raise the same error
    assert _outcome(parse_graph, text) == _outcome(_parse_lines, text)


def test_serialize_is_canonical(p4):
    text = serialize_graph(p4)
    assert text == serialize_graph(parse_graph(text))
    lines = text.strip().splitlines()
    assert lines[0].startswith("A ") and lines[1].startswith("B ")
    assert all(line.startswith("E ") for line in lines[2:])


@pytest.mark.parametrize("label", ["a 1", "", "a\xa01", 1])
def test_serialize_refuses_a_label_the_format_cannot_carry(label):
    # build_graph accepts these labels, but parse_graph would split or
    # drop them, or the text could not hold them, so it could not be
    # read back
    g = build_graph([label, "a2"], ["b1"], [("a2", "b1")])
    with pytest.raises(ValueError) as err:
        serialize_graph(g)
    fault = "is not a string" if label == 1 else "is empty or holds whitespace"
    assert str(err.value) == f"label {label!r} {fault}"


def test_add_edges(p4):
    g2 = add_edges(p4, [(0, 3)])
    assert g2.m == p4.m + 1
    assert g2.has_edge(0, 3)
    assert p4.m == 3  # original untouched


def test_add_edges_rejects_existing(p4):
    with pytest.raises(IllegalEdge):
        add_edges(p4, [(0, 2)])  # a1 - b1 already an edge


def test_add_edges_rejects_same_side(p4):
    with pytest.raises(IllegalEdge):
        add_edges(p4, [(0, 1)])


def test_add_edges_rejects_repeat_in_list(p4):
    with pytest.raises(IllegalEdge):
        add_edges(p4, [(0, 3), (3, 0)])


def test_add_edges_rejects_an_out_of_range_index(p4):
    # the same error BipartiteGraph raises for an edge to a missing vertex
    for pair in [(0, 99), (99, 0), (-1, 2)]:
        with pytest.raises(IllegalEdge, match="out of range"):
            add_edges(p4, [pair])


def test_add_edges_takes_either_orientation(p4):
    assert add_edges(p4, [(3, 0)]) == add_edges(p4, [(0, 3)])
    assert add_edges(p4, [(3, 0)]).edges == add_edges(p4, [(0, 3)]).edges


# a1 a2 a3 are indices 0 1 2, b1 b2 b3 are 3 4 5, and a1 b1 is an edge
@pytest.mark.parametrize(
    "pairs, message",
    [
        # an out-of-range or same-side pair first, in list order
        ([(0, 4), (1, 2), (0, 3)], "edge joins same side vertices 'a2' and 'a3'"),
        ([(0, 3), (9, 1)], "edge (9, 1): vertex index out of range"),
        ([(0, 3), (5, 3), (-1, 4)], "edge joins same side vertices 'b3' and 'b1'"),
        ([(4, 1), (0, 3), (3, 6), (1, 0)], "edge (3, 6): vertex index out of range"),
        # then the smallest pair already present or repeated
        ([(2, 5), (1, 4), (4, 1), (0, 3)], "duplicate edge 'a1' 'b1'"),
        ([(2, 5), (5, 2), (4, 1), (1, 4)], "duplicate edge 'a2' 'b2'"),
        ([(5, 2), (2, 5), (4, 0), (0, 4)], "duplicate edge 'a1' 'b2'"),
        # an item that is no pair of indices counts as the first kind
        ([(0, 4), (0, 4, 1), (9, 1)], "edge (0, 4, 1): not a pair of vertex indices"),
        ([(0, 4), (0,)], "edge (0,): not a pair of vertex indices"),
        ([("a1", "b2"), (0, 4)], "edge ('a1', 'b2'): not a pair of vertex indices"),
        ([(0, 4), (0.0, 4), "ab", 5], "edge (0.0, 4): not a pair of vertex indices"),
        ([(0, 4), (9, 1), (0, 4, 1)], "edge (9, 1): vertex index out of range"),
    ],
)
def test_add_edges_names_the_fault_in_input_order(pairs, message):
    g = build_graph(["a1", "a2", "a3"], ["b1", "b2", "b3"], [("a1", "b1")])
    with pytest.raises(IllegalEdge) as err:
        add_edges(g, pairs)
    assert str(err.value) == message


def _bad_pair(g, pairs):
    """Is some pair out of range, within one side, already an edge of g
    or a repeat of an earlier pair?"""
    seen = set()
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < g.n):
            return True
        if g.sides[u] == g.sides[v] or g.has_edge(u, v):
            return True
        key = (u, v) if g.sides[u] == 0 else (v, u)
        if key in seen:
            return True
        seen.add(key)
    return False


@st.composite
def _graphs_and_pairs(draw):
    na, nb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a = [f"a{i}" for i in range(na)]
    b = [f"b{j}" for j in range(nb)]
    cells = [(x, y) for x in a for y in b]
    edges = [c for c in cells if draw(st.booleans())]
    g = build_graph(a, b, edges)
    end = st.integers(-1, g.n)
    return g, draw(st.lists(st.tuples(end, end), max_size=5))


@settings(max_examples=400, deadline=None)
@given(_graphs_and_pairs())
def test_add_edges_raises_exactly_on_a_bad_pair(case):
    g, pairs = case
    if _bad_pair(g, pairs):
        with pytest.raises(IllegalEdge):
            add_edges(g, pairs)
        return
    g2 = add_edges(g, pairs)
    union = list(g.edge_labels()) + [(g.labels[u], g.labels[v]) for u, v in pairs]
    a = [g.labels[i] for i in g.a_vertices()]
    b = [g.labels[i] for i in g.b_vertices()]
    ref = build_graph(a, b, union)
    assert (g2.labels, g2.sides, g2.edges, g2.adj) == (ref.labels, ref.sides, ref.edges, ref.adj)


@pytest.mark.parametrize(
    "a, b, label", [(["a1", "a1"], ["b1"], "a1"), (["x"], ["b1", "x"], "x")]
)
def test_build_graph_names_a_repeated_label_before_an_undeclared_one(a, b, label):
    with pytest.raises(ParseError) as err:
        build_graph(a, b, [("a1", "zz")])
    assert type(err.value) is ParseError
    assert str(err.value) == f"duplicate vertex label {label!r}"


def test_build_graph_names_the_first_undeclared_label_of_a_pair():
    with pytest.raises(ParseError) as err:
        build_graph(["a1"], ["b1"], [("a1", "b1"), ("p", "q")])
    assert str(err.value) == "edge references undeclared vertex 'p'"
    with pytest.raises(ParseError) as err:
        build_graph(["a1"], ["b1"], [("a1", "q")])
    assert str(err.value) == "edge references undeclared vertex 'q'"


def test_cycle_graph_matches_a_built_cycle():
    # the closing edge added to the path gives the same graph as
    # building the cycle's label pairs from scratch
    for k in range(4, 41, 2):
        p = path_graph(k)
        ref = build_graph(
            [p.labels[i] for i in p.a_vertices()],
            [p.labels[i] for i in p.b_vertices()],
            list(p.edge_labels()) + [(p.labels[0], p.labels[k - 1])],
        )
        c = cycle_graph(k)
        assert (c.labels, c.sides, c.edges, c.adj) == (ref.labels, ref.sides, ref.edges, ref.adj)


def test_has_edge_matches_reference():
    rng = random.Random(5)
    for _ in range(200):
        na, nb = rng.randint(0, 4), rng.randint(0, 4)
        labels = [f"a{i}" for i in range(na)] + [f"b{j}" for j in range(nb)]
        edges = {
            (i, na + j)
            for i in range(na)
            for j in range(nb)
            if rng.random() < 0.3
        }
        g = BipartiteGraph(labels, [0] * na + [1] * nb, edges)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == ((u, v) in edges or (v, u) in edges)


def test_path_and_cycle_generators():
    p = path_graph(6)
    assert p.n == 6 and p.m == 5
    c = cycle_graph(6)
    assert c.n == 6 and c.m == 6
    assert all(c.degree(v) == 2 for v in range(c.n))


def test_spider_generator_shape():
    g = spider_graph([1, 1, 2, 2])
    hub = g.label_index["x"]
    assert g.degree(hub) == 4
    assert g.n == 1 + 1 + 1 + 2 + 2


def test_broom_generator_shape():
    g = broom_graph(3, 4)
    assert g.n == 2 + 3 + 4
    assert g.m == 1 + 3 + 4


def test_caterpillar_generator_shape():
    g = caterpillar_graph(6)
    assert g.m == g.n - 1  # a tree


def test_random_generator_is_seeded():
    assert random_bipartite(5, 5, 0.4, seed=9) == random_bipartite(
        5, 5, 0.4, seed=9
    )
    assert random_bipartite(5, 5, 0.4, seed=9) != random_bipartite(
        5, 5, 0.4, seed=10
    )


def test_random_generator_bounds_p():
    # the skips divide by log(1 - p), so the ends take no logarithm
    for p in (1.0, 1.5):
        assert random_bipartite(3, 4, p, seed=1).m == 12
    for p in (0.0, -0.5, 1e-30):
        assert random_bipartite(3, 4, p, seed=1).m == 0


@pytest.mark.parametrize("kind", ["spider", "broom", "caterpillar", "random"])
def test_generate_instance_size_tracks_request(kind):
    g = generate_instance(kind, 60, 0, None)
    assert 30 <= g.n <= 120


def test_generate_instance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_instance("torus", 10, 0, None)
