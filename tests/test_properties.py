"""Property tests: the recognizer against exhaustive enumeration."""
from hypothesis import given, settings, strategies as st

from klsparse import Graph, SparsityParams, brute_force_check, check_sparsity, verify_certificate


@st.composite
def instances(draw):
    """A graph and parameters of any range, with every edge kind the range allows.

    Loops and parallel edges for l <= k, parallel edges for k < l < 2k,
    simple graphs for 2k <= l < 3k; up to k*n + 2 edges, so some graphs are
    short-circuited and most small ones are disconnected.
    """
    k = draw(st.integers(1, 3))
    p = SparsityParams(k, draw(st.integers(0, 3 * k - 1)))
    n = draw(st.integers(0, 7))
    if n == 0 or (n == 1 and p.t > 0):
        return Graph(n, ()), p
    if p.t == 0:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda ud: (ud[0], (ud[0] + ud[1]) % n))
    edges = draw(st.lists(pair, max_size=k * n + 2,
                          unique_by=(lambda e: frozenset(e)) if p.t == 2 else None))
    return Graph(n, tuple(edges)), p


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(instances())
def test_check_sparsity_matches_brute_force(case):
    g, p = case
    result = check_sparsity(g, p.k, p.l)
    assert result.sparse == (brute_force_check(g, p) is None)
    if not result.sparse:
        assert verify_certificate(g, p, result.certificate)

