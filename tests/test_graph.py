import random

import pytest

from klsparse import (
    Certificate,
    Graph,
    InputError,
    ParameterError,
    SparsityParams,
    check_sparsity,
    format_edge_list,
    induced_edge_count,
    parse_edge_list,
    validate_input,
    verify_certificate,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))

# 8-vertex example: K4 on {0,1,2,3} with a pendant triangle on each side.
FIG1 = Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (0, 6), (6, 7), (1, 7), (3, 4), (3, 5), (4, 5)))


def test_graph_rejects_bad_endpoints():
    with pytest.raises(InputError):
        Graph(3, ((0, 3),))
    with pytest.raises(InputError):
        Graph(2, ((-1, 0),))
    with pytest.raises(InputError):
        Graph(-1, ())


def test_graph_rejects_non_integers():
    # int() would truncate 2.9 into a parallel (0, 2) edge
    for n, edges in ((3, ((0, 2.9), (0, 2))), (2.7, ()), (3, (("0", "1"),))):
        with pytest.raises(InputError):
            Graph(n, edges)
    g = Graph(2, ((False, True),))  # bool is an int
    assert g.edges == ((0, 1),) and type(g.edges[0][1]) is int


def test_induced_edge_count_triangle():
    assert induced_edge_count(TRIANGLE, {0, 1, 2}) == 3
    assert induced_edge_count(TRIANGLE, {0, 1}) == 1
    assert induced_edge_count(TRIANGLE, set()) == 0


def test_induced_edge_count_figure_one_shaded_set():
    assert induced_edge_count(FIG1, {0, 1, 2, 3}) == 6


def test_induced_edge_count_loop_counts_once():
    g = Graph(2, ((0, 0), (0, 1)))
    assert induced_edge_count(g, {0}) == 1
    assert induced_edge_count(g, {0, 1}) == 2
    assert induced_edge_count(g, {1}) == 0


def test_induced_edge_count_rejects_out_of_range():
    with pytest.raises(InputError):
        induced_edge_count(TRIANGLE, {0, 5})


def test_induced_edge_count_monotone_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(rng.randint(0, 12)))
        g = Graph(n, edges)
        inner = {v for v in range(n) if rng.random() < 0.4}
        outer = inner | {v for v in range(n) if rng.random() < 0.4}
        ci, co = induced_edge_count(g, inner), induced_edge_count(g, outer)
        assert 0 <= ci <= co <= g.m
        assert induced_edge_count(g, range(n)) == g.m


def test_sparsity_params_ranges():
    assert SparsityParams(2, 1).t == 0
    assert SparsityParams(2, 2).t == 0
    assert SparsityParams(2, 3).t == 1
    assert SparsityParams(2, 4).t == 2
    assert SparsityParams(2, 5).t == 2
    with pytest.raises(ParameterError):
        SparsityParams(2, 6)
    with pytest.raises(ParameterError):
        SparsityParams(2, -1)
    with pytest.raises(ParameterError):
        SparsityParams(0, 0)


def test_sparsity_params_reject_non_integers():
    # 1.5 used to pass and answer for a range that does not exist
    path = Graph(3, ((0, 1), (1, 2)))
    for k, l in ((1.5, 1), (2.5, 3), (2, 3.0), ("2", 3)):
        with pytest.raises(ParameterError):
            SparsityParams(k, l)
        with pytest.raises(ParameterError):
            check_sparsity(path, k, l)
    p = SparsityParams(True, False)  # bool is an int
    assert (p.k, p.l, p.t) == (1, 0, 0) and type(p.k) is int
    assert check_sparsity(path, True, 1).sparse


def test_validate_input_per_range():
    loop = Graph(2, ((0, 0), (0, 1)))
    parallel = Graph(2, ((0, 1), (0, 1)))
    assert validate_input(loop, SparsityParams(2, 3)) == "loops forbidden for k<l<2k"
    assert validate_input(parallel, SparsityParams(2, 4)) == "graph must be simple for 2k<=l<3k"
    assert validate_input(parallel, SparsityParams(2, 2)) is None
    assert validate_input(loop, SparsityParams(2, 1)) is None
    assert validate_input(loop, SparsityParams(2, 4)) is not None
    # A pair counts in either order; a loop's pair is (v, v).
    assert validate_input(Graph(3, ((1, 2), (2, 1))), SparsityParams(2, 4)) is not None
    assert validate_input(Graph(0, ()), SparsityParams(2, 4)) is None
    mixed = Graph(3, ((2, 0), (1, 1), (0, 2), (1, 1), (2, 0)))
    assert [g.heaviest_pair() for g in (Graph(0, ()), loop, parallel, mixed)] == \
        [(None, 0), ((0, 0), 1), ((0, 1), 2), ((0, 2), 3)]
    # Among ties the pair that first appears wins, in either order.
    tie = Graph(4, ((3, 1), (0, 2), (2, 0), (1, 3), (0, 1)))
    assert tie.heaviest_pair() == ((1, 3), 2)
    assert Graph(4, tie.edges[1:] + tie.edges[:1]).heaviest_pair() == ((0, 2), 2)


def test_extended_validation_finds_loops_and_parallel_edges_in_one_pass():
    # The extended range's one set of pair keys must agree with has_loop and
    # has_parallel_edge: a loop alone, a parallel pair alone, both, neither.
    p = SparsityParams(2, 5)
    cases = {
        Graph(4, ((0, 1), (1, 2), (3, 3))): True,
        Graph(4, ((2, 3), (0, 1), (3, 2))): True,
        Graph(4, ((1, 1), (0, 3), (3, 0), (1, 1))): True,
        Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))): False,
        Graph(1, ((0, 0),)): True,
        Graph(0, ()): False,
    }
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6)))
        g = Graph(n, edges)
        cases[g] = g.has_loop() or g.has_parallel_edge()
    for g, bad in cases.items():
        assert (validate_input(g, p) == "graph must be simple for 2k<=l<3k") == bad, g
        assert validate_input(g, SparsityParams(2, 2)) is None


def test_verify_certificate():
    p = SparsityParams(2, 3)
    assert verify_certificate(K4, p, Certificate(frozenset(range(4)), 0, 0))
    assert not verify_certificate(TRIANGLE, p, Certificate(frozenset(range(3)), 0, 0))
    assert verify_certificate(TRIANGLE, SparsityParams(2, 4), Certificate(frozenset(range(3)), 0, 0))
    # extended range requires at least three vertices
    two = Graph(3, ((0, 1),))
    assert not verify_certificate(two, SparsityParams(1, 2), Certificate(frozenset({0, 1}), 0, 0))


def test_edge_list_round_trip():
    text = format_edge_list(FIG1)
    again = parse_edge_list(text)
    assert again == FIG1
    assert format_edge_list(again) == text


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# a comment\n2 1\n# another\n0 1\n")
    assert g == Graph(2, ((0, 1),))
    with pytest.raises(InputError):
        parse_edge_list("")
    with pytest.raises(InputError):
        parse_edge_list("2\n")
    with pytest.raises(InputError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 x\n")
    with pytest.raises(InputError):
        parse_edge_list("2 1\n0 1\n1 0\n")
