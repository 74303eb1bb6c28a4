"""Self-test of the benchmark: generator verdicts, checker, and small runs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import gen
import harness
from run import SRC
from spans import COUNTS

sys.path.insert(0, SRC)
from klsparse import (  # noqa: E402
    SparsityParams, brute_force_check, check_sparsity, parse_edge_list, pebble_game_check)

E2E = {"edges_per_s.sparse", "edges_per_s.violated", "doubling", "setup_s", "peak_alloc_mb"}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_small_instances_match_both_oracles(workload):
    for seed in range(4):
        for inst in gen.generate(workload, seed, small=True):
            g = parse_edge_list(inst.text)
            p = SparsityParams(inst.family.k, inst.family.l)
            assert (brute_force_check(g, p) is None) == inst.family.sparse, inst
            assert (pebble_game_check(g, p) is None) == inst.family.sparse, inst
            if not inst.family.sparse:
                assert g.m <= inst.family.k * g.n - inst.family.l


def test_generation_is_seeded():
    first = [i.text for i in gen.generate("mid", 5, small=True)]
    assert first == [i.text for i in gen.generate("mid", 5, small=True)]
    assert first != [i.text for i in gen.generate("mid", 6, small=True)]


def _planted_cases():
    for workload in sorted(gen.WORKLOADS):
        for inst in gen.generate(workload, 0, small=True):
            if not inst.family.sparse:
                yield inst, parse_edge_list(inst.text), harness.parse_edges(inst.text)


def _violates(inst, edges, xs):
    k, l = inst.family.k, inst.family.l
    raw = k * len(xs) - l
    bound = raw if l >= 2 * k else max(raw, 0)
    return (len(xs) >= 3 or l < 2 * k) and sum(u in xs and v in xs for u, v in edges) > bound


def _raise(*_):
    raise RuntimeError("injected")


def test_checker_counts_each_bad_result_as_failed():
    shrunk = 0
    for inst, g, edges in _planted_cases():
        good = check_sparsity(g, inst.family.k, inst.family.l)
        tally = harness.Tally()
        tally.check(lambda *_: good, inst, g, edges)
        assert (tally.attempted, tally.failed) == (1, 0)
        tally.check(lambda *_: SimpleNamespace(sparse=True, certificate=None), inst, g, edges)
        assert tally.failed == 1
        tally.check(_raise, inst, g, edges)
        assert tally.failed == 2
        xs = set(good.certificate.vertices)
        for v in sorted(xs):
            if not _violates(inst, edges, xs - {v}):
                cert = SimpleNamespace(vertices=frozenset(xs - {v}))
                tally.check(lambda *_: SimpleNamespace(sparse=False, certificate=cert),
                            inst, g, edges)
                assert (tally.attempted, tally.failed) == (4, 3)
                shrunk += 1
                break
    assert shrunk > 0


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_prints_every_metric(workload, trace):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", trace, "--small"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = set(result["metrics"])
    if trace == "0":
        assert names == E2E
    else:
        assert set(COUNTS) <= names and "recognize.self_s" in names
