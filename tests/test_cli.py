import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import strongpow.cli as cli
import strongpow.verify
from strongpow.cli import main
from strongpow.formulas import _text, spanning_tree_count_formula


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv):
    """A fresh `python -m strongpow` process with piped stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-m", "strongpow", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_build_json_cyclic_6(capsys):
    code, out, err = run(capsys, "build", "--group", "zn:6")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["edges"] == [
        [0, 2], [0, 3], [0, 4],
        [1, 2], [1, 3], [1, 4], [1, 5],
        [2, 3], [2, 4], [2, 5],
        [3, 4], [3, 5],
        [4, 5],
    ]


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "--group", "zn:4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert "  0 -- 2;" in out
    assert "  2 -- 3;" in out


def test_build_mtx_laplacian(capsys):
    code, out, _ = run(capsys, "build", "--group", "zn:4", "--format", "mtx")
    assert code == 0
    assert out == (
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "4 4 8\n"
        "1 1 1\n"
        "2 2 2\n"
        "3 1 -1\n"
        "3 2 -1\n"
        "3 3 3\n"
        "4 2 -1\n"
        "4 3 -1\n"
        "4 4 2\n"
    )


def test_build_mtx_adjacency(capsys):
    code, out, _ = run(
        capsys, "build", "--group", "zn:4", "--format", "mtx", "--matrix", "adjacency"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "4 4 4"
    assert "3 1 1" in lines


def test_build_out_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, _ = run(capsys, "build", "--group", "klein", "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["n"] == 4
    assert len(payload["edges"]) == 6


def test_build_out_file_matches_stdout(tmp_path, capsys):
    # 40 vertices: the streamed output spans several row blocks
    for fmt in (["json"], ["dot"], ["mtx"], ["mtx", "--matrix", "adjacency"]):
        for group in ("zn:40", "dihedral:20"):
            argv = ["build", "--group", group, "--format", *fmt]
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.endswith("\n")
            path = tmp_path / "g.out"
            code, to_file, _ = run(capsys, *argv, "--out", str(path))
            assert code == 0 and to_file == ""
            assert path.read_bytes() == out.encode()


def test_invariants_table_cyclic_4(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "zn:4")
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert rows["order"] == "4"
    assert rows["cyclic"] == "true"
    assert rows["spectrum"] == "4^1 3^1 1^1 0^1"
    assert rows["spanning_trees"] == "3"
    assert rows["laplacian_energy"] == "6"
    assert rows["laplacian_energy_closed_form"] == "4"
    assert rows["kappa"] == "1"
    assert rows["kappa_oracle"] == "1"
    assert rows["chi"] == "3"
    assert rows["per_lap_formula"] == "22"
    assert rows["per_lap_ryser"] == "22"
    assert rows["degrees"] == "1 2 2 3"


def test_invariants_table_klein(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "klein")
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert rows["cyclic"] == "false"
    assert rows["spectrum"] == "4^3 0^1"
    assert rows["spanning_trees"] == "16"
    assert rows["kappa"] == "3"
    assert rows["chi"] == "4"
    assert rows["cayley"] == "true"
    assert rows["per_lap_formula"] == "120"
    assert rows["per_lap_ryser"] == "120"


def test_invariants_json_cyclic_5(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "zn:5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebraic_connectivity"] == 0
    assert payload["spanning_trees"] == 0
    assert payload["kappa"] == 0
    assert payload["line_graph"] is True
    assert payload["cayley"] is False
    # K_4 on the non-identity elements, with the identity isolated
    assert payload["spectrum"] == [[4, 3], [0, 2]]


def test_invariants_json_past_every_guard(capsys):
    # Z_320's twin classes give 49,536 grouped Ryser terms, past the budget;
    # the kappa oracle has no bound
    code, out, _ = run(capsys, "invariants", "--group", "zn:320", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa_oracle"] == payload["kappa"] == 191
    assert payload["per_adj"]["ryser"] is None
    assert payload["per_lap"]["ryser"] is None
    assert payload["per_adj"]["formula"] is not None
    assert payload["line_graph"] is False
    code, out, _ = run(
        capsys, "invariants", "--group", "dihedral:21", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa_oracle"] == payload["kappa"] == 41
    assert payload["line_graph"] is True


def test_invariants_json_ryser_past_order_24(capsys):
    # dihedral:96's graph is K_192, one twin class: 193 grouped terms
    code, out, _ = run(capsys, "invariants", "--group", "dihedral:96", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for field in ("per_adj", "per_lap"):
        assert payload[field]["ryser"] == payload[field]["formula"] is not None


def test_invalid_group_spec_exits_2(capsys):
    code, out, err = run(capsys, "build", "--group", "zn:0")
    assert code == 2
    assert err.startswith("error:")
    assert "order" in err
    code, _, err = run(capsys, "build", "--group", "nonsense")
    assert code == 2 and err.startswith("error:")


def test_orders_past_the_table_bound_exit_2(capsys):
    # every group, cyclic ones too, is refused past 4096 before any work
    for argv in (
        ("build", "--group", "zn:100000"),
        ("invariants", "--group", "zn:4097"),
        ("verify", "--checks", "spectrum", "--family", "cyclic", "--range", "100000..100000"),
        ("build", "--group", "dihedral:2049"),
        ("build", "--group", "product:zn:2+zn:2049"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds bound 4096" in err
    # sweep reads only closed forms and keeps every order
    code, out, _ = run(capsys, "sweep", "--range", "5000..5000", "--columns", "kappa")
    assert code == 0 and out.splitlines()[1].startswith("5000,")


def test_invalid_range_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "cyclic", "--range", "4..2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "verify", "--family", "cyclic", "--range", "x")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "sweep", "--range", "5")
    assert code == 2 and err.startswith("error:")
    # the whole text must be a range: no trailing newline
    code, out, err = run(capsys, "verify", "--family", "cyclic", "--range", "2..3\n")
    assert code == 2 and out == ""
    assert err == "error: range must look like 2..24, got '2..3\\n'\n"
    # a range that holds no corpus group names the orders the corpus has
    for span in ("30..40", "5..5"):
        code, out, err = run(capsys, "verify", "--family", "corpus", "--range", span)
        assert code == 2 and out == ""
        assert err == (f"error: no corpus group has order in {span}; the corpus orders "
                       "are 4, 6, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24\n")


def test_verify_le_known_disagreement(capsys):
    code, out, err = run(
        capsys,
        "verify", "--family", "cyclic", "--range", "4..4", "--checks", "le",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("check\t")
    fields = lines[1].split("\t")
    assert fields[0] == "le"
    assert fields[4] == "4" and fields[5] == "6"
    assert fields[6] == "disagree"


def test_verify_exit_1_when_discrepancy_not_documented(capsys, monkeypatch):
    monkeypatch.setattr(strongpow.verify, "load_known_discrepancies", lambda: ())
    code, out, err = run(
        capsys,
        "verify", "--family", "cyclic", "--range", "4..4", "--checks", "le",
    )
    assert code == 1
    assert "le" in err


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "corpus", "--range", "4..8",
        "--checks", "tau,kappa", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "corpus"
    assert payload["counts"]["disagree"] == 0
    assert all(r["status"] == "agree" for r in payload["records"])


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "cyclic", "--range", "2..4", "--checks", "bogus"
    )
    assert code == 2 and err.startswith("error:")


def test_verify_empty_check_list_exits_2(capsys):
    for checks in (",", ""):
        code, out, err = run(
            capsys, "verify", "--family", "cyclic", "--range", "1..3", "--checks", checks
        )
        assert code == 2 and out == ""
        assert err.startswith("error: empty check list")


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.tsv"
    code, out, _ = run(
        capsys,
        "verify", "--family", "cyclic", "--range", "4..5",
        "--checks", "tau", "--out", str(path),
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("check\t")
    assert len(text.strip().split("\n")) == 3


def test_sweep_range(capsys):
    code, out, _ = run(capsys, "sweep", "--range", "2..10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,phi,spectrum,a,tau,le,kappa,chi,linegraph"
    assert len(lines) == 10
    assert lines[1] == "2,1,0^2,0,0,0,0,1,true"
    by_n = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert by_n["9"][8] == "true"
    assert by_n["6"][3] == "3"
    assert by_n["6"][8] == "false"


def test_line_graph_cell_order_1_agrees(capsys):
    # the one-vertex graph of Z_1 is L(K_2); every command must say so
    code, out, _ = run(capsys, "sweep", "--range", "1..1")
    assert code == 0
    header, row = out.strip().split("\n")
    assert row.split(",")[header.split(",").index("linegraph")] == "true"
    code, out, _ = run(capsys, "invariants", "--group", "zn:1")
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert rows["line_graph"] == "true"
    code, out, _ = run(
        capsys, "verify", "--family", "cyclic", "--range", "1..1", "--checks", "linegraph"
    )
    assert code == 0
    assert out.strip().split("\n")[1].split("\t")[4:7] == ["true", "true", "agree"]


def test_verify_linegraph_reach(capsys):
    # no line-graph record skips at any order
    for family, span in (("cyclic", "1..256"), ("corpus", "1..24")):
        code, out, _ = run(
            capsys, "verify", "--family", family, "--range", span, "--checks", "linegraph"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
        assert len(rows) == (256 if family == "cyclic" else 18)
        assert all(r[6] == "agree" for r in rows)


def test_verify_tau_reach(capsys):
    # tau is read off the char poly, so neither check skips below order 257
    for family, span, groups in (("cyclic", "60..70", 11), ("corpus", "1..24", 18)):
        code, out, _ = run(
            capsys, "verify", "--family", family, "--range", span, "--checks", "charpoly,tau"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2 * groups
        assert all(r[6] == "agree" for r in rows)


def test_sweep_columns_subset(capsys):
    code, out, _ = run(
        capsys, "sweep", "--range", "2..4", "--columns", "tau,phi"
    )
    assert code == 0
    lines = out.strip().split("\n")
    # n always leads; requested columns follow canonical order
    assert lines[0] == "n,phi,tau"
    assert lines[2] == "3,2,0"


def test_sweep_unknown_column_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--range", "2..4", "--columns", "zeta")
    assert code == 2 and err.startswith("error:")


def test_sweep_empty_column_list_exits_2(capsys):
    # as `verify --checks ,` does, an empty list is an error, not the n column
    for columns in (",", ""):
        code, out, err = run(capsys, "sweep", "--range", "2..4", "--columns", columns)
        assert code == 2 and out == ""
        assert err == f"error: empty column list; expected some of: {', '.join(cli.SWEEP_COLUMNS)}\n"


def test_sweep_deterministic(capsys):
    code1, out1, _ = run(capsys, "sweep", "--range", "2..12")
    code2, out2, _ = run(capsys, "sweep", "--range", "2..12")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_past_int_str_digit_limit(capsys):
    # tau(1500) has more than 4300 decimal digits
    code, out, err = run(capsys, "sweep", "--range", "1500..1500")
    assert code == 0 and err == ""
    header, row = out.strip().split("\n")
    tau = row.split(",")[header.split(",").index("tau")]
    # the CLI lifts the limit only around its own conversions
    assert tau == _text(spanning_tree_count_formula(1500, True))


def _as_text(key, value):
    """A JSON bundle value as the table prints it."""
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return str(value).lower()
    if key == "spectrum":
        return " ".join(f"{v}^{m}" for v, m in value)
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("spec", ["zn:4", "klein", "zn:42", "sym:4"])
def test_invariants_table_rows_are_the_flattened_json(capsys, spec):
    code, table, _ = run(capsys, "invariants", "--group", spec)
    assert code == 0
    code, text, _ = run(capsys, "invariants", "--group", spec, "--format", "json")
    assert code == 0
    fields = []
    for key, value in json.loads(text).items():
        if isinstance(value, dict):
            fields.extend((f"{key}_{k}", _as_text(k, v)) for k, v in value.items())
        else:
            fields.append(("order" if key == "n" else key, _as_text(key, value)))
    rows = [tuple(line.split(None, 1)) for line in table.splitlines()]
    assert rows == fields
    assert len(rows) == 20


def test_sweep_streams_rows_before_the_range_ends():
    with spawn("sweep", "--range", "1..99999999999999999999") as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no output within 60 s"
            lines = [proc.stdout.readline() for _ in range(3)]
        finally:
            proc.kill()
    assert lines[0] == (",".join(cli.SWEEP_COLUMNS) + "\n").encode()
    assert [line.split(b",", 1)[0] for line in lines[1:]] == [b"1", b"2"]


@pytest.mark.parametrize("argv", [
    ("build", "--group", "zn:1024", "--format", "dot"),
    ("sweep", "--range", "1..99999999999999999999"),
])
def test_closed_stdout_ends_the_command_quietly(argv):
    with spawn(*argv) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no output within 60 s"
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
    assert err == b""
    assert code == 0


def test_out_write_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = run(capsys, "sweep", "--range", "1..3", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2]")

