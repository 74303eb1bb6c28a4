"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 1 and 2 stash every emitted certificate so criterion 3 can replay
them through the independent verifier.  Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""
import gc
import itertools
import random
import time

from klsparse import (
    Certificate,
    GenSpec,
    Graph,
    Orientation,
    SparsityParams,
    brute_force_check,
    check_sparsity,
    forest_decomposition,
    generate,
    induced_edge_count,
    pebble_game_check,
    rooted_violation,
    verify_certificate,
)

GRID = [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 4), (3, 5),
        (2, 4), (2, 5), (3, 6), (3, 8)]

FIG1 = Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (0, 6), (6, 7), (1, 7), (3, 4), (3, 5), (4, 5)))

_EMITTED: list[tuple[Graph, SparsityParams, Certificate]] = []


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    rng = random.Random(0xC1)
    total = mismatches = 0
    for k, l in GRID:
        p = SparsityParams(k, l)
        for _ in range(500):
            n = rng.randint(1, 8)
            g = generate(GenSpec("random-edges", n, k, l, rng.getrandbits(48)))
            assert g.m <= k * g.n
            result = check_sparsity(g, k, l)
            brute = brute_force_check(g, p)
            total += 1
            if result.sparse != (brute is None):
                mismatches += 1
            if result.certificate is not None:
                _EMITTED.append((g, p, result.certificate))
            if brute is not None:
                _EMITTED.append((g, p, brute))
    elapsed = time.perf_counter() - start
    _report("criterion 1: exhaustive oracle equivalence",
            mismatches == 0 and elapsed < 300,
            f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_pebble():
    start = time.perf_counter()
    rng = random.Random(0xC2)
    total = mismatches = 0
    for k, l in GRID:
        p = SparsityParams(k, l)
        for n in (50, 100, 200):
            for _ in range(50):
                g = generate(GenSpec("random-edges", n, k, l, rng.getrandbits(48)))
                result = check_sparsity(g, k, l)
                pebble = pebble_game_check(g, p)
                total += 1
                if result.sparse != (pebble is None):
                    mismatches += 1
                if result.certificate is not None:
                    _EMITTED.append((g, p, result.certificate))
                if pebble is not None:
                    _EMITTED.append((g, p, pebble))
    elapsed = time.perf_counter() - start
    _report("criterion 2: pebble oracle equivalence",
            mismatches == 0, f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_certificate_soundness():
    assert _EMITTED, "criteria 1-2 must run first"
    bad = sum(1 for g, p, cert in _EMITTED if not verify_certificate(g, p, cert))
    _report("criterion 3: certificate soundness",
            bad == 0, f"{len(_EMITTED)} certificates, {bad} invalid")


def _random_source_instance(rng: random.Random):
    n = rng.randint(2, 8)
    k = rng.randint(1, 3)
    t = rng.randint(0, min(2, n - 1))
    l = rng.randint(t * k, min((t + 1) * k, 3 * k - 1))
    u0 = frozenset(rng.sample(range(n), t))
    edges = []
    indeg = [0] * n
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        if u in u0 and v in u0:
            continue
        heads = [w for w in (u, v) if w not in u0 and indeg[w] < k]
        if not heads:
            continue
        hd = rng.choice(heads)
        edges.append((u if hd == v else v, hd))
        indeg[hd] += 1
    return Graph(n, tuple(edges)), u0, k, l


def test_criterion_4_main_lemma_iff():
    rng = random.Random(0xC4)
    total = failures = 0
    for _ in range(200):
        g, u0, k, l = _random_source_instance(rng)
        t = len(u0)
        d0 = Orientation(g)

        # left side: some strict superset of u0 violates (k,l)-sparsity
        others = [v for v in range(g.n) if v not in u0]
        superset_exists = any(
            induced_edge_count(g, u0 | set(extra)) > k * (t + r) - l
            for r in range(1, len(others) + 1)
            for extra in itertools.combinations(others, r)
        )

        # right side, built independently from the definition: delete u0,
        # add a root, wire k - indeg(v) root arcs, enumerate indegrees
        arcs = [(d0.tail[e], d0.head[e]) for e in range(g.m)
                if d0.tail[e] not in u0]
        root = g.n
        for v in others:
            arcs.extend([(root, v)] * (k - d0.indeg[v]))
        eta = l - t * k
        rooted_exists = False
        for r in range(1, len(others) + 1):
            for xs in itertools.combinations(others, r):
                inside = set(xs)
                if sum(1 for a, b in arcs if a not in inside and b in inside) < eta:
                    rooted_exists = True
                    break
            if rooted_exists:
                break

        algorithmic = bool(rooted_violation(d0, frozenset(u0), k, l - len(u0) * k))
        total += 1
        if not (superset_exists == rooted_exists == algorithmic):
            failures += 1
    _report("criterion 4: reduction equivalence",
            failures == 0, f"{total} instances, {failures} failures")


def test_criterion_5_figure_one_instance():
    result = check_sparsity(FIG1, 2, 3)
    p = SparsityParams(2, 3)
    shaded = Certificate(frozenset({0, 1, 2, 3}), 6, 5)
    ok = (not result.sparse
          and verify_certificate(FIG1, p, result.certificate)
          and induced_edge_count(FIG1, shaded.vertices) == 6
          and verify_certificate(FIG1, p, shaded)
          and brute_force_check(FIG1, p) is not None)
    _report("criterion 5: transcribed example instance", ok,
            "not sparse; the 4-set has 6 > 5 induced edges")


def test_criterion_6_tight_positives():
    rng = random.Random(0xC6)
    p = SparsityParams(2, 3)
    failures = 0
    for _ in range(200):
        n = rng.randint(4, 100)
        g = generate(GenSpec("tight-henneberg", n, 2, 3, rng.getrandbits(48)))
        if g.m != 2 * n - 3 or not check_sparsity(g, 2, 3).sparse:
            failures += 1
            continue
        present = {tuple(sorted(e)) for e in g.edges}
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in present]
        extra = candidates[rng.randrange(len(candidates))]
        augmented = Graph(n, g.edges + (extra,))
        result = check_sparsity(augmented, 2, 3)
        if result.sparse or not verify_certificate(augmented, p, result.certificate):
            failures += 1
    _report("criterion 6: tight positives flip on edge insertion",
            failures == 0, f"200 instances, {failures} failures")


def test_criterion_7_forest_decomposition_nash_williams():
    rng = random.Random(0xC7)
    sparse_done = dense_done = failures = 0
    while sparse_done < 500 or dense_done < 500:
        kappa = rng.randint(1, 3)
        n = rng.randint(2, 8)
        count = rng.randint(0, kappa * n)
        edges = tuple(tuple(sorted(rng.sample(range(n), 2))) for _ in range(count))
        g = Graph(n, edges)
        is_sparse = brute_force_check(g, SparsityParams(kappa, kappa)) is None
        if is_sparse:
            if sparse_done >= 500:
                continue
            sparse_done += 1
            cert, fd = forest_decomposition(g, kappa)
            classes = [] if fd is None else [fd.class_edges(i) for i in range(kappa)]
            # (1,1)-sparse means acyclic, by the oracle that shares no code with the builder.
            if cert is not None or fd is None \
                    or any(brute_force_check(Graph(n, tuple(edges[e] for e in c)),
                                             SparsityParams(1, 1)) is not None for c in classes) \
                    or sum(map(len, classes)) != g.m:
                failures += 1
        else:
            if dense_done >= 500:
                continue
            dense_done += 1
            cert, fd = forest_decomposition(g, kappa)
            xs = cert.vertices if cert is not None else None
            if fd is not None or xs is None \
                    or induced_edge_count(g, xs) <= kappa * len(xs) - kappa:
                failures += 1
    _report("criterion 7: forest decomposition agrees with arboricity",
            failures == 0, f"500 decomposable + 500 certified, {failures} failures")


def test_criterion_8_scaling_sanity():
    # The main checks take a few milliseconds, so the sizes are interleaved
    # and the collector is off, as in the timing gates of test_recognize:
    # a slow spell of the machine, or a collection paid for the objects of
    # earlier tests, then hits every size alike.
    sizes = (2000, 4000, 8000, 16000)
    graphs = [generate(GenSpec("tight-henneberg", n, 2, 3, 0xC8)) for n in sizes]
    main_times = [float("inf")] * len(sizes)
    pebble_times = [float("inf")] * len(sizes)
    gc.disable()
    try:
        for _ in range(2):
            for i, g in enumerate(graphs):
                t0 = time.perf_counter()
                assert check_sparsity(g, 2, 3).sparse
                main_times[i] = min(main_times[i], time.perf_counter() - t0)
                t0 = time.perf_counter()
                assert pebble_game_check(g, SparsityParams(2, 3)) is None
                pebble_times[i] = min(pebble_times[i], time.perf_counter() - t0)
    finally:
        gc.enable()
    main_ratios = [b / a for a, b in zip(main_times, main_times[1:])]
    pebble_ratios = [b / a for a, b in zip(pebble_times, pebble_times[1:])]
    for n, tm, tp in zip(sizes, main_times, pebble_times):
        print(f"[acceptance]   n={n}: main={tm:.3f}s pebble={tp:.3f}s", flush=True)
    print(f"[acceptance]   main doubling ratios: {[f'{r:.2f}' for r in main_ratios]}", flush=True)
    print(f"[acceptance]   pebble doubling ratios: {[f'{r:.2f}' for r in pebble_ratios]}", flush=True)
    if max(main_ratios) > 3.5:
        print("[acceptance]   note: main ratio exceeded the soft 3.5 target", flush=True)
    if pebble_ratios[-1] < 3.5:
        print("[acceptance]   note: pebble baseline stayed subquadratic on this family "
              "(soft expectation of ratio >= 3.5 not observed)", flush=True)
    _report("criterion 8: scaling sanity",
            max(main_ratios) <= 4.5,
            f"max main doubling ratio {max(main_ratios):.2f} <= 4.5")
