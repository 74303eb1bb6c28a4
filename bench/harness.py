"""Timing, calibration and result checking for the benchmark.

Every timing is divided by the speed of the host at that moment, measured
with a fixed pure-Python kernel run next to it, and reported in calibrated
seconds: ``raw * NOMINAL_S / kernel``.  The kernel does the same kind of
work as the program (breadth-first search over lists, a dict and a deque),
so a slower or busier host stretches both alike and the ratio stays put.
"""
from __future__ import annotations

import gc
import importlib
import random
import statistics
import sys
import time
import tracemalloc
from collections import deque
from dataclasses import dataclass

from gen import Instance, bound, range_index

# Median kernel time on the reference host (see README), so that calibrated
# seconds read close to wall-clock seconds there.
NOMINAL_S = 0.0080

# Checks shorter than this share the kernel runs around their group.
KERNEL_EVERY_S = 0.1

_KERNEL_ADJ = (lambda rng: [[rng.randrange(3000) for _ in range(3)] for _ in range(3000)])(
    random.Random(0))


def kernel() -> float:
    """Run the calibration kernel once and return its wall time.

    Two breadth-first searches from each of four roots over a fixed random
    digraph: one reuses a parent dict, one allocates a dict of tuples and a
    set per root, as the program's searches do.
    """
    start = time.perf_counter()
    adj = _KERNEL_ADJ
    parent: dict[int, int] = {}
    for root in (0, 1, 2, 3):
        parent.clear()
        parent[root] = root
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        via = {root: (-1, -1)}
        seen = {root}
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            for i, w in enumerate(adj[u]):
                if w not in seen:
                    seen.add(w)
                    via[w] = (u, i)
                    queue.append(w)
    return time.perf_counter() - start


def parse_edges(text: str) -> list[tuple[int, int]]:
    """The benchmark's own reading of an instance, independent of klsparse."""
    lines = text.split("\n")
    m = int(lines[0].split()[1])
    return [(int(a), int(b)) for a, b in (ln.split() for ln in lines[1:m + 1])]


def verify(inst: Instance, edges: list[tuple[int, int]], result) -> bool:
    """Check a RecognitionResult against the construction's verdict.

    A certificate is recounted here: it must induce more than k|X| - l
    edges (clamped at 0 in the classical ranges) and, in the extended
    range, hold at least three vertices.
    """
    fam = inst.family
    if bool(result.sparse) != fam.sparse:
        return False
    if fam.sparse:
        return result.certificate is None
    xs = {int(v) for v in result.certificate.vertices}
    if not xs or min(xs) < 0 or max(xs) >= inst.n:
        return False
    if range_index(fam.k, fam.l) == 2 and len(xs) < 3:
        return False
    induced = sum(1 for u, v in edges if u in xs and v in xs)
    return induced > bound(fam.k, fam.l, len(xs))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, check, inst: Instance, graph, edges) -> float:
        """Run and verify one check; return its raw wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = check(graph, inst.family.k, inst.family.l)
        except Exception as exc:  # a crash counts as a failed check
            print(f"check raised on {inst.family.name} n={inst.n}: {exc!r}", file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            ok = verify(inst, edges, result)
        except Exception:
            ok = False
        if not ok:
            print(f"wrong result on {inst.family.name} n={inst.n}", file=sys.stderr)
            self.failed += 1
        return elapsed


def import_klsparse():
    """Import klsparse afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "klsparse" or n.startswith("klsparse.")]:
        del sys.modules[name]
    return importlib.import_module("klsparse")


@dataclass
class Setup:
    module: object
    graphs: list
    setup_s: float  # calibrated median of import + parse
    parse_s: float  # calibrated median of the parse alone


def measure_setup(texts: list[str], reps: int) -> Setup:
    """Import klsparse and parse every instance, ``reps`` times after a warm-up."""
    import_klsparse()  # warm-up: compiles the sources once
    totals, parses = [], []
    for _ in range(reps):
        gc.collect()
        before = kernel()
        start = time.perf_counter()
        module = import_klsparse()
        mid = time.perf_counter()
        graphs = [module.parse_edge_list(text) for text in texts]
        end = time.perf_counter()
        factor = NOMINAL_S / ((before + kernel()) / 2)
        totals.append((end - start) * factor)
        parses.append((end - mid) * factor)
    return Setup(module, graphs, statistics.median(totals), statistics.median(parses))


@dataclass
class Rounds:
    """Per-instance calibrated and raw times over whole rounds."""

    calibrated: list[list[float]]
    raw: list[list[float]]
    rounds: int = 0


def run_round(check, instances, graphs, edges, tally: Tally, prev_kernel: float,
              after_check=None) -> tuple[list[float], list[float], float]:
    """One pass over every instance, with kernel runs between the checks.

    The kernel runs after every check that ends at least ``KERNEL_EVERY_S``
    after the previous kernel run, and at the end of the round; each check
    is calibrated by the kernel runs just before and after its group.
    """
    gc.collect()
    calibrated, raw = [], []
    group: list[int] = []
    last = time.perf_counter()
    for i, inst in enumerate(instances):
        raw.append(tally.check(check, inst, graphs[i], edges[i]))
        if after_check is not None:
            after_check(i)
        calibrated.append(0.0)
        group.append(i)
        if time.perf_counter() - last < KERNEL_EVERY_S and i + 1 < len(instances):
            continue
        after = kernel()
        factor = NOMINAL_S / ((prev_kernel + after) / 2)
        for j in group:
            calibrated[j] = raw[j] * factor
        prev_kernel, group, last = after, [], time.perf_counter()
    return calibrated, raw, prev_kernel


def timed_rounds(check, instances, graphs, edges, tally: Tally, seconds: float) -> Rounds:
    """Repeat whole rounds until ``seconds`` have passed (at least one)."""
    out = Rounds([[] for _ in instances], [[] for _ in instances])
    deadline = time.perf_counter() + seconds
    prev = kernel()
    while True:
        cal, raw, prev = run_round(check, instances, graphs, edges, tally, prev)
        for i in range(len(instances)):
            out.calibrated[i].append(cal[i])
            out.raw[i].append(raw[i])
        out.rounds += 1
        if time.perf_counter() >= deadline:
            return out


def end_to_end(instances: list[Instance], per_instance: list[list[float]]) -> dict[str, float]:
    """edges_per_s.sparse / .violated and doubling from per-instance times."""
    med = [statistics.median(ts) for ts in per_instance]
    time_of: dict[tuple[str, bool], float] = {}
    edges_of: dict[tuple[str, bool], int] = {}
    families = {}
    for inst, t in zip(instances, med):
        key = (inst.family.name, inst.large)
        time_of[key] = time_of.get(key, 0.0) + t
        edges_of[key] = edges_of.get(key, 0) + inst.m
        families[inst.family.name] = inst.family
    rate = {name: edges_of[name, True] / time_of[name, True] for name in families}
    gmean = statistics.geometric_mean
    return {
        "edges_per_s.sparse": gmean(rate[f] for f, fam in families.items() if fam.sparse),
        "edges_per_s.violated": gmean(rate[f] for f, fam in families.items() if not fam.sparse),
        "doubling": gmean(time_of[f, True] / time_of[f, False] for f in families),
    }


def peak_alloc_mb(check, instances, graphs, edges, tally: Tally) -> float:
    """Largest tracemalloc peak over one check of each family's first 2n instance."""
    seen, peak = set(), 0
    for i, inst in enumerate(instances):
        if not inst.large or inst.family.name in seen:
            continue
        seen.add(inst.family.name)
        gc.collect()
        tracemalloc.start()
        try:
            tally.check(check, inst, graphs[i], edges[i])
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6
