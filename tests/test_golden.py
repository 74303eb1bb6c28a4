"""Golden digests: verdicts and certificates pinned per range and stage.

Each instance's record is its verdict, sorted certificate, induced edge
count and bound.  The records are grouped by range and by the stage that
decides the instance, classified from public calls only, and each group is
hashed.  A change that must move a certificate moves exactly the digests of
the stages it touches.  Orientation vectors and forest assignments are left
out: both are allowed to change.

Run as a script to regenerate or compare:

    python tests/test_golden.py               # which digests moved
    python tests/test_golden.py --write       # rewrite golden_digests.json
    python tests/test_golden.py --dump FILE   # write every record to FILE
    python tests/test_golden.py --diff FILE   # instances that differ from a dump

``--dump`` on one checkout and ``--diff`` on another name the instances
behind a moved digest, and end with one summary line per digest.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from klsparse import (
    GenSpec,
    Graph,
    SparsityParams,
    bounded_orientation,
    check_sparsity,
    forest_decomposition,
    generate,
)

DIGESTS = Path(__file__).with_name("golden_digests.json")
RANGES = ("low", "mid", "extended")
STAGES = (("short-circuit", "orientation", "rooted"), ("short-circuit", "forest", "centroid"),
          ("short-circuit", "insertion"))


def _random_instances(rng: random.Random, t: int, count: int):
    """Seeded multigraphs with n <= 12 in range t, with every edge kind it allows.

    Loops and parallel edges for l <= k, parallel edges for k < l < 2k,
    simple graphs for 2k <= l < 3k; up to k*n + 2 edges, so some are
    short-circuited.
    """
    for i in range(count):
        k = rng.randint(2 if t == 1 else 1, 3)
        l = rng.randint(*((0, k), (k + 1, 2 * k - 1), (2 * k, 3 * k - 1))[t])
        n = rng.randint(1, 12)
        m = rng.randint(0, k * n + 2)
        if t == 0:
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        elif t == 1:
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(m if n > 1 else 0)]
        else:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, min(m, len(pairs)))
        yield f"random-{i}", Graph(n, tuple(edges)), k, l


def _generated_instances():
    for k in range(1, 4):
        for l in range(3 * k):
            for kind in ("random-edges", "planted-violation"):
                for n in (20, 60, 150):
                    yield f"{kind}-n{n}", generate(GenSpec(kind, n, k, l, 3)), k, l


def _stage(g: Graph, k: int, l: int) -> str:
    """The stage whose answer decides (g, k, l), read off public calls."""
    t = SparsityParams(k, l).t
    if g.m > k * g.n:
        return "short-circuit"
    if t == 0:
        return "orientation" if bounded_orientation(g, k)[0] is not None else "rooted"
    if t == 1:
        return "forest" if forest_decomposition(g, k)[0] is not None else "centroid"
    return "insertion"


def records() -> dict[str, list[str]]:
    """Every instance's record line, grouped by "range/stage"."""
    rng = random.Random(11)
    instances = [inst for t in range(3) for inst in _random_instances(rng, t, 1500)]
    instances += _generated_instances()
    groups: dict[str, list[str]] = {}
    for name, g, k, l in instances:
        result = check_sparsity(g, k, l)
        cert = result.certificate
        line = f"{name} k={k} l={l} sparse={result.sparse}"
        if cert is not None:
            line += f" {cert.sorted_vertices()} {cert.induced_edges} {cert.bound}"
        key = f"{RANGES[SparsityParams(k, l).t]}/{_stage(g, k, l)}"
        groups.setdefault(key, []).append(line)
    return dict(sorted(groups.items()))


def digests(groups: dict[str, list[str]]) -> dict[str, dict]:
    return {key: {"instances": len(lines),
                  "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}
            for key, lines in groups.items()}


def test_digests_are_unchanged():
    pinned = json.loads(DIGESTS.read_text())
    assert set(pinned) == {f"{r}/{s}" for r, stages in zip(RANGES, STAGES) for s in stages}
    assert digests(records()) == pinned


RECORD = re.compile(r"(\S+) (\S+ k=\d+ l=\d+) sparse=(True|False)(?: \[([\d, ]*)\] .*)?")


def _diff_summary(old: set[str], new: set[str]) -> list[str]:
    """One line per digest: records moved, verdicts changed, and how moved certificates compare.

    A record is matched to the old one of the same digest, instance and
    (k,l).  Certificates are compared as vertex sets: smaller, larger or
    the same size, and how many are a strict subset of the old one.
    """
    def parse(lines):
        records = {}
        for line in lines:
            key, name, sparse, cert = RECORD.fullmatch(line).groups()
            records[key, name] = sparse, None if cert is None else set(map(int, cert.split(",")))
        return records

    before, after = parse(old), parse(new)
    lines = []
    for key in sorted({key for key, _ in before} | {key for key, _ in after}):
        names = [name for k, name in after if k == key]
        moved = flipped = smaller = larger = subset = 0
        for name in names:
            if (was := before.get((key, name))) == (now := after[key, name]):
                continue
            moved += 1
            if was is None or was[0] != now[0]:
                flipped += 1
            elif now[1] is not None:
                smaller += len(now[1]) < len(was[1])
                larger += len(now[1]) > len(was[1])
                subset += now[1] < was[1]
        same = moved - flipped - smaller - larger
        lines.append(f"{key}: {moved} of {len(names)} records moved, {flipped} verdicts changed; "
                     f"certificates {smaller} smaller, {larger} larger, {same} the same size, "
                     f"{subset} a strict subset of the old one")
    return lines


def main(argv: list[str]) -> int:
    groups = records()
    if argv[:1] == ["--write"]:
        DIGESTS.write_text(json.dumps(digests(groups), indent=2) + "\n")
        return 0
    if argv[:1] == ["--dump"]:
        Path(argv[1]).write_text("".join(f"{key} {line}\n" for key, lines in groups.items()
                                         for line in lines))
        return 0
    if argv[:1] == ["--diff"]:
        old = set(Path(argv[1]).read_text().splitlines())
        new = {f"{key} {line}" for key, lines in groups.items() for line in lines}
        for line in sorted(old - new):
            print("-", line)
        for line in sorted(new - old):
            print("+", line)
        for summary in _diff_summary(old, new):
            print(summary)
        return 1 if old != new else 0
    pinned = json.loads(DIGESTS.read_text())
    moved = 0
    for key, value in digests(groups).items():
        same = pinned.get(key) == value
        moved += not same
        print(f"{key}: {value['instances']} instances, {'unchanged' if same else 'MOVED'}")
    return 1 if moved or set(pinned) != set(groups) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
