"""The klsparse benchmark: seeded workloads over the three sparsity ranges.

    python3 bench/run.py --workload mid --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout, in one process with one thread.
It generates the workload's instances from the seed, measures set-up
(importing klsparse and parsing every instance), then repeats whole rounds
of ``check_sparsity`` over the instances for the given number of seconds,
checking every verdict and certificate.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from alternating untraced and traced rounds.  Per-family
figures go to ``bench/out/``.  ``--small`` runs every family once at a
size the exhaustive oracle can check.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

import gen  # noqa: E402
import harness  # noqa: E402
from spans import COUNTS, ROOT, SPANS, Tracer  # noqa: E402

SETUP_REPS = 11


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_sum(per_instance, indices) -> float:
    return sum(statistics.median(per_instance[i]) for i in indices)


def _by_family(instances) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault(f"{inst.family.name} n={inst.n}", []).append(i)
    return groups


def untraced(seconds, instances, setup, edges, tally) -> tuple[dict, dict]:
    check = setup.module.check_sparsity
    rounds = harness.timed_rounds(check, instances, setup.graphs, edges, tally, seconds)
    e2e = harness.end_to_end(instances, rounds.calibrated)
    peak = harness.peak_alloc_mb(check, instances, setup.graphs, edges, tally)
    metrics = {
        "edges_per_s.sparse": _metric(e2e["edges_per_s.sparse"], "edges/s"),
        "edges_per_s.violated": _metric(e2e["edges_per_s.violated"], "edges/s"),
        "doubling": _metric(e2e["doubling"], "ratio"),
        "setup_s": _metric(setup.setup_s, "s"),
        "peak_alloc_mb": _metric(peak, "MB"),
    }
    detail = {
        "rounds": rounds.rounds,
        "raw": harness.end_to_end(instances, rounds.raw),
        "families": {
            name: {"edges": sum(instances[i].m for i in idx),
                   "calibrated_s": _median_sum(rounds.calibrated, idx),
                   "raw_s": _median_sum(rounds.raw, idx)}
            for name, idx in _by_family(instances).items()},
    }
    return metrics, detail


def traced(seconds, instances, setup, edges, tally) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; sum per-instance medians."""
    tracer = Tracer()
    check = setup.module.check_sparsity
    traced_check = tracer.root(check)
    size = len(instances)
    plain = [[] for _ in range(size)]
    spans = [[] for _ in range(size)]
    selfs = [{s: [] for s in SPANS} for _ in range(size)]
    counts: list[dict | None] = [None] * size
    pending: list[dict] = [{} for _ in range(size)]  # raw self times of the last check

    def collect(i):
        self_s, c = tracer.take()
        pending[i] = self_s
        if counts[i] is None:
            counts[i] = c
        elif counts[i] != c:
            print(f"trace counts differ between rounds on instance {i}", file=sys.stderr)

    deadline = time.perf_counter() + seconds
    prev = harness.kernel()
    while True:
        cal, _, prev = harness.run_round(check, instances, setup.graphs, edges, tally, prev)
        for i in range(size):
            plain[i].append(cal[i])
        tracer.install()
        try:
            cal, raw, prev = harness.run_round(traced_check, instances, setup.graphs, edges,
                                               tally, prev, collect)
        finally:
            tracer.uninstall()
        for i in range(size):
            spans[i].append(cal[i])
            for name, t in pending[i].items():
                selfs[i][name].append(t * cal[i] / raw[i])
        if time.perf_counter() >= deadline:
            break
    if tracer.absent or tracer.miscounted:
        print(f"absent layers: {tracer.absent}, miscounted: {sorted(tracer.miscounted)}",
              file=sys.stderr)

    def layers(idx) -> dict[str, float]:
        out = {}
        for name in SPANS:
            key = "recognize.self_s" if name == ROOT else f"{name}_s"
            out[key] = sum(statistics.median(selfs[i][name]) for i in idx)
        for name in COUNTS:
            out[name] = sum(counts[i][name] for i in idx)
        return out

    everything = range(size)
    untraced_s, traced_s = _median_sum(plain, everything), _median_sum(spans, everything)
    metrics = {"graph.parse_s": _metric(setup.parse_s, "s")}
    for name, value in layers(everything).items():
        metrics[name] = _metric(value, "count" if name in COUNTS else "s")
    metrics["check.untraced_s"] = _metric(untraced_s, "s")
    metrics["check.traced_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_pct"] = _metric(100 * (traced_s - untraced_s) / untraced_s, "%")
    detail = {"absent": tracer.absent,
              "families": {name: layers(idx) for name, idx in _by_family(instances).items()}}
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run: the result object and the per-family detail."""
    instances = gen.generate(workload, seed, small)
    edges = [harness.parse_edges(inst.text) for inst in instances]
    setup = harness.measure_setup([inst.text for inst in instances], SETUP_REPS)
    tally = harness.Tally()
    metrics, detail = (traced if trace else untraced)(seconds, instances, setup, edges, tally)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "klsparse", "__init__.py")):
        print(f"error: no klsparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, **detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
