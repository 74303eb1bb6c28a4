import random

import pytest

from klsparse import (
    GenSpec,
    Graph,
    InputError,
    ParameterError,
    SparsityParams,
    brute_force_check,
    check_sparsity,
    generate,
    induced_edge_count,
    pebble_game_check,
    verify_certificate,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def test_brute_force_basics():
    assert brute_force_check(K4, SparsityParams(2, 3)) is not None
    assert brute_force_check(TRIANGLE, SparsityParams(2, 3)) is None
    cert = brute_force_check(
        Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (0, 6), (6, 7), (1, 7), (3, 4), (3, 5), (4, 5))),
        SparsityParams(2, 3))
    assert cert is not None
    assert cert.vertices == frozenset({0, 1, 2, 3})


def test_brute_force_lexicographic_first():
    # both triangles violate (1,1); {0,1,2} precedes {3,4,5}
    g = Graph(6, ((3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2)))
    cert = brute_force_check(g, SparsityParams(1, 1))
    assert cert.vertices == frozenset({0, 1, 2})


def test_brute_force_guard():
    with pytest.raises(InputError):
        brute_force_check(Graph(25, ()), SparsityParams(1, 1))


def test_pebble_basics():
    assert pebble_game_check(K4, SparsityParams(2, 3)) is not None
    assert pebble_game_check(C4, SparsityParams(2, 4)) is None
    assert brute_force_check(C4, SparsityParams(2, 4)) is None


def test_pebble_validates_input():
    with pytest.raises(InputError):
        pebble_game_check(Graph(2, ((0, 0), (0, 1))), SparsityParams(2, 3))


def test_pebble_handles_loops_in_low_range():
    one_loop = Graph(1, ((0, 0),))
    assert pebble_game_check(one_loop, SparsityParams(2, 1)) is None
    two_loops = Graph(1, ((0, 0), (0, 0)))
    cert = pebble_game_check(two_loops, SparsityParams(2, 1))
    assert cert is not None and cert.vertices == frozenset({0})
    # (k,k) forbids loops entirely
    assert pebble_game_check(one_loop, SparsityParams(2, 2)) is not None


def test_pebble_matches_recognizer_on_medium_instance():
    g = generate(GenSpec("tight-henneberg", 50, 2, 3, 9))
    assert pebble_game_check(g, SparsityParams(2, 3)) is None
    assert check_sparsity(g, 2, 3).sparse


def test_generate_deterministic():
    spec = GenSpec("random-edges", 30, 2, 3, 12345)
    assert generate(spec) == generate(spec)
    spec2 = GenSpec("tight-henneberg", 30, 2, 3, 7)
    assert generate(spec2) == generate(spec2)


def test_generate_respects_range_rules():
    rng = random.Random(8)
    for kind in ("random-edges", "planted-violation"):
        for k, l in ((1, 0), (2, 2), (2, 3), (2, 4), (3, 8)):
            p = SparsityParams(k, l)
            for _ in range(20):
                n = rng.randint(max(2, 5 if p.t == 2 else 2), 9)
                g = generate(GenSpec(kind, n, k, l, rng.getrandbits(32)))
                assert g.n == n
                if p.t >= 1:
                    assert not g.has_loop()
                if p.t == 2:
                    assert not g.has_parallel_edge()
                if kind == "random-edges":
                    assert g.m <= k * n


def test_henneberg_tight_and_sparse():
    assert generate(GenSpec("tight-henneberg", 3, 2, 3, 0)).m == 3
    for seed in range(10):
        g = generate(GenSpec("tight-henneberg", 40, 2, 3, seed))
        assert g.m == 2 * g.n - 3
        assert check_sparsity(g, 2, 3).sparse
    with pytest.raises(ParameterError):
        generate(GenSpec("tight-henneberg", 10, 2, 2, 0))


def test_planted_violation_not_sparse():
    rng = random.Random(10)
    for k, l in ((2, 3), (1, 1), (2, 4), (3, 6)):
        p = SparsityParams(k, l)
        for _ in range(10):
            n = rng.randint(6, 10)
            g = generate(GenSpec("planted-violation", n, k, l, rng.getrandbits(32)))
            res = check_sparsity(g, k, l)
            assert not res.sparse
            assert verify_certificate(g, p, res.certificate)


def test_planted_violation_fits_simple_graphs_at_4_10():
    # At (4,10) a simple graph on 4 or 5 vertices cannot hold the 7 or 11
    # edges a violation needs, so those sizes are never drawn.
    p = SparsityParams(4, 10)
    for n in range(5, 41):
        for seed in range(20):
            g = generate(GenSpec("planted-violation", n, 4, 10, seed))
            assert not g.has_loop() and not g.has_parallel_edge()
            res = check_sparsity(g, 4, 10)
            assert not res.sparse
            assert verify_certificate(g, p, res.certificate)


def test_generate_rejects_bad_specs():
    with pytest.raises(ParameterError):
        generate(GenSpec("unknown", 5, 2, 3, 0))
    with pytest.raises(ParameterError):
        generate(GenSpec("planted-violation", 2, 2, 4, 0))  # needs size-3 subset
    with pytest.raises(ParameterError):
        generate(GenSpec("random-edges", -1, 2, 3, 0))


def test_oracles_agree_with_each_other():
    rng = random.Random(515)
    for _ in range(150):
        k = rng.randint(1, 3)
        l = rng.randint(0, 3 * k - 1)
        p = SparsityParams(k, l)
        n = rng.randint(1, 8)
        g = generate(GenSpec("random-edges", n, k, l, rng.getrandbits(32)))
        brute = brute_force_check(g, p)
        peb = pebble_game_check(g, p)
        assert (brute is None) == (peb is None)
        if peb is not None:
            assert verify_certificate(g, p, peb)
            assert verify_certificate(g, p, brute)
