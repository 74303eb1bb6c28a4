import csv
import io
import json

import pytest

from klsparse import ContractError, Graph, format_edge_list, parse_edge_list
from klsparse.cli import main

K4_TEXT = format_edge_list(Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4))))
TRIANGLE_TEXT = format_edge_list(Graph(3, ((0, 1), (1, 2), (0, 2))))


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_not_sparse(capsys, k4_file):
    code, out, _ = _run(capsys, ["check", "--k", "2", "--l", "3", k4_file])
    assert code == 1
    payload = json.loads(out)
    assert payload["sparse"] is False
    assert payload["violating_set"] == [0, 1, 2, 3]
    assert payload["induced_edges"] == 6
    assert payload["bound"] == 5


def test_check_heavy_pair(capsys, tmp_path):
    # K4 plus a doubled pendant edge at (2,3): the doubled pair is the certificate.
    path = tmp_path / "heavy.txt"
    k4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    path.write_text(format_edge_list(Graph(5, k4 + ((0, 4), (4, 0)))))
    code, out, _ = _run(capsys, ["check", "--k", "2", "--l", "3", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["violating_set"] == [0, 4]
    assert payload["induced_edges"] == 2 and payload["bound"] == 1


def test_check_sparse(capsys, triangle_file):
    code, out, _ = _run(capsys, ["check", "--k", "2", "--l", "3", triangle_file])
    assert code == 0
    assert out.strip() == "sparse"


def test_check_loop_rejected(capsys, tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text("2 2\n0 0\n0 1\n")
    code, out, err = _run(capsys, ["check", "--k", "2", "--l", "3", str(path)])
    assert code == 2
    assert "loops" in err


def test_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense\n")
    code, _, err = _run(capsys, ["check", "--k", "2", "--l", "3", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_check_missing_file(capsys):
    code, _, err = _run(capsys, ["check", "--k", "2", "--l", "3", "/nonexistent/x"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [["check", "--k", "1", "--l", "1"], ["orient", "--kappa", "1"]])
def test_non_utf8_file_is_bad_input(capsys, tmp_path, command):
    # undecodable bytes are the file's fault: exit 2, not an internal error
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe 1 0\n")
    code, out, err = _run(capsys, command + [str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_check_bad_parameters(capsys, triangle_file):
    code, _, err = _run(capsys, ["check", "--k", "2", "--l", "6", triangle_file])
    assert code == 2


def test_decompose_success_and_failure(capsys, k4_file, triangle_file):
    code, out, _ = _run(capsys, ["decompose", "--kappa", "2", k4_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("forest 0:")
    assert lines[1].startswith("forest 1:")
    ids = sorted(int(tok) for line in lines for tok in line.split(":")[1].split())
    assert ids == list(range(6))

    code, out, _ = _run(capsys, ["decompose", "--kappa", "1", triangle_file])
    assert code == 1
    payload = json.loads(out)
    assert payload["violating_set"] == [0, 1, 2]


def test_orient_output(capsys, triangle_file, k4_file):
    code, out, _ = _run(capsys, ["orient", "--kappa", "1", triangle_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    heads = []
    for e, line in enumerate(lines):
        left, arrow = line.split(": ")
        assert int(left) == e
        tail, head = arrow.split("->")
        heads.append(int(head))
    assert sorted(heads) == [0, 1, 2]  # indegree 1 everywhere

    code, out, _ = _run(capsys, ["orient", "--kappa", "1", k4_file])
    assert code == 1
    assert json.loads(out)["violating_set"] == [0, 1, 2, 3]


@pytest.mark.parametrize("command", ["decompose", "orient"])
def test_kappa_below_one_is_a_parameter_error(capsys, tmp_path, command):
    path = tmp_path / "path.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, err = _run(capsys, [command, "--kappa", "0", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: kappa")


def test_internal_error_exits_3(capsys, monkeypatch, triangle_file):
    # a crash must not exit 1, which reads as "certified violation"
    def crash(g, k, l):
        raise ContractError("broken invariant")
    monkeypatch.setattr("klsparse.cli.check_sparsity", crash)
    code, out, err = _run(capsys, ["check", "--k", "2", "--l", "3", triangle_file])
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == "error: internal: ContractError: broken invariant"


def test_gen_deterministic_and_parses(capsys):
    argv = ["gen", "--kind", "tight-henneberg", "--n", "10", "--k", "2", "--l", "3", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_edge_list(out1)
    assert g.n == 10 and g.m == 17


def test_oracle_brute(capsys, k4_file):
    code, out, _ = _run(capsys, ["oracle", "--method", "brute", "--k", "2", "--l", "3", k4_file])
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "not sparse"
    assert json.loads(lines[1])["violating_set"] == [0, 1, 2, 3]


def test_oracle_pebble_sparse(capsys, triangle_file):
    code, out, _ = _run(capsys, ["oracle", "--method", "pebble", "--k", "2", "--l", "3", triangle_file])
    assert code == 0
    assert out.strip() == "sparse"


def test_bench_csv_shape(capsys):
    argv = ["bench", "--k", "2", "--l", "3", "--sizes", "20,30", "--reps", "3",
            "--seed", "5", "--kind", "tight-henneberg"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 3 * 2  # sizes x reps x algorithms
    for row in rows:
        assert row["algorithm"] in ("main", "pebble")
        assert row["verdict"] == "sparse"
        assert int(row["ns"]) > 0
        assert int(row["m"]) == 2 * int(row["n"]) - 3
    # per-seed verdict agreement between algorithms
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], set()).add(row["verdict"])
    assert all(len(v) == 1 for v in by_seed.values())


def test_bench_deterministic_instances(capsys):
    argv = ["bench", "--k", "2", "--l", "2", "--sizes", "15", "--reps", "2", "--seed", "9"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    rows1 = [r.rsplit(",", 2)[0] for r in out1.splitlines()]
    rows2 = [r.rsplit(",", 2)[0] for r in out2.splitlines()]
    assert rows1 == rows2  # identical apart from timing and verdict columns


def test_bench_rejects_unknown_algorithm(capsys):
    code, _, err = _run(capsys, ["bench", "--k", "2", "--l", "3", "--sizes", "10",
                                 "--algorithms", "magic"])
    assert code == 2
    assert "unknown algorithm" in err


def test_logging_env(capsys, monkeypatch, triangle_file):
    monkeypatch.setenv("SPARSITY_LOG", "debug")
    import logging
    code, out, err = _run(capsys, ["check", "--k", "2", "--l", "3", triangle_file])
    # tear down the handler installed by main() to keep tests independent
    root = logging.getLogger("klsparse")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    assert code == 0
    assert "check_sparsity" in err
