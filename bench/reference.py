"""Reference figures for the README: the recognizer next to the pebble oracle.

    python3 bench/reference.py --workload mid --seed 1
    python3 bench/reference.py --one-edge 2500,5000

For every family and size of a workload, prints the median raw and
calibrated time per check of ``check_sparsity`` and the calibrated time of
``pebble_game_check`` on the same instances, with each one's doubling ratio.
``--one-edge`` times ``check_sparsity`` for (2,2) on a graph with n vertices
and the single edge (0, 1).  Not part of the timed benchmark.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

import gen
import harness
from run import SRC

sys.path.insert(0, SRC)
import klsparse  # noqa: E402


def _timed(fn, *args) -> tuple[float, float, object]:
    before = harness.kernel()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    factor = harness.NOMINAL_S / ((before + harness.kernel()) / 2)
    return elapsed, elapsed * factor, result


def families(workload: str, seed: int) -> None:
    rows: dict[tuple[str, bool], list] = {}
    for inst in gen.generate(workload, seed):
        g = klsparse.parse_edge_list(inst.text)
        k, l = inst.family.k, inst.family.l
        raw, cal, result = _timed(klsparse.check_sparsity, g, k, l)
        _, oracle, cert = _timed(klsparse.pebble_game_check, g, klsparse.SparsityParams(k, l))
        assert harness.verify(inst, harness.parse_edges(inst.text), result)
        assert (cert is None) == inst.family.sparse
        rows.setdefault((inst.family.name, inst.large), []).append(
            (inst.n, inst.m, raw, cal, oracle))
    print("| family | n | m | main raw ms | main cal ms | pebble cal ms "
          "| main doubling | pebble doubling |")
    print("|---|---|---|---|---|---|---|---|")
    for (name, large), runs in rows.items():
        med = [statistics.median(col) for col in zip(*runs)]
        doubling = "| | "
        if large:
            small = [statistics.median(col) for col in zip(*rows[name, False])]
            doubling = f"| {med[3] / small[3]:.2f} | {med[4] / small[4]:.2f} "
        print(f"| {name} | {runs[0][0]} | {med[1]:.0f} | {med[2] * 1e3:.1f} | {med[3] * 1e3:.1f} "
              f"| {med[4] * 1e3:.1f} {doubling}|")


def one_edge(sizes: list[int]) -> None:
    for n in sizes:
        raw, cal, result = _timed(klsparse.check_sparsity, klsparse.Graph(n, ((0, 1),)), 2, 2)
        assert result.sparse
        print(f"(2,2) one edge, n={n}: raw {raw:.2f} s, calibrated {cal:.2f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one-edge", default="")
    args = parser.parse_args()
    if args.workload:
        families(args.workload, args.seed)
    if args.one_edge:
        one_edge([int(n) for n in args.one_edge.split(",")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
