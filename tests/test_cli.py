"""End-to-end tests for the command-line interface (in-process)."""

import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gfshanoi.cli as cli
import gfshanoi.verify as verify_mod
from gfshanoi.gfs import GfsTable

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_single_row(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "2:1", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["n value diff split", "5 31 16 -"]


def test_compute_range(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "3:2", "--n", "1..3")
    assert code == 0
    assert out.splitlines()[1:] == ["1 2 2 -", "2 8 6 -", "3 26 18 -"]


def test_compute_classic_split_column(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "2:1", "--pq", "2:1",
                       "--n", "1..6", "--splits")
    assert code == 0
    assert [line.split()[3] for line in out.splitlines()[1:]] == [
        "1", "2", "2", "3", "3", "3"]


def test_compute_argmin_fallback_is_marked(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "1:2", "--pq", "2:1",
                       "--n", "1..3", "--splits")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[3] == "1*"
    assert lines[-1].startswith("* split from recurrence argmin")


def test_compute_split_needs_two_pairs(capsys):
    code, _, err = run(capsys, "compute", "--pq", "2:1", "--n", "1..3", "--splits")
    assert code == 1
    assert "pairs" in err


def test_compute_oracle_match(capsys):
    code, _, err = run(capsys, "compute", "--pq", "3:2", "--pq", "2:1",
                       "--n", "0..10", "--oracle")
    assert code == 0
    assert "oracle: match (11 checked)" in err


def test_compute_oracle_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gfs_prefix", lambda params, n_max: [0] + [1] * n_max)
    code, _, err = run(capsys, "compute", "--pq", "2:1", "--n", "0..4", "--oracle")
    assert code == 2
    assert "mismatch" in err


def test_compute_builds_one_table(capsys, monkeypatch):
    # the argmin split column (a unit base) and --oracle share one table
    calls = []
    build = GfsTable.build

    def counting_build(params, n_max):
        calls.append(n_max)
        return build(params, n_max)

    monkeypatch.setattr(GfsTable, "build", counting_build)
    code, out, err = run(capsys, "compute", "--pq", "1:1", "--pq", "2:1", "--pq", "2:1",
                         "--n", "0..40", "--splits", "--oracle")
    assert code == 0
    assert "oracle: match (41 checked)" in err
    assert out.splitlines()[-1].startswith("* split from recurrence argmin")
    assert calls == [40]


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "2:1", "--pq", "2:1",
                       "--n", "3..4", "--splits", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    assert payload["bases"] == [2, 2]
    assert payload["rows"][0] == {
        "n": 3, "value": "5", "diff": "2", "split": 2,
        "split_source": "split-indices"}


def test_compute_json_big_values_are_strings(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "9:9", "--n", "64", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert isinstance(row["value"], str)
    assert int(row["value"]) == 9 * (9**64 - 1) // 8


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--pq", "2:1", "--pq", "2:1",
                       "--n", "1..4", "--splits", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,value,diff,split", "1,1,1,1", "2,3,2,2", "3,5,2,2", "4,9,4,3"]


def test_sequence_plain_with_splits(capsys):
    code, out, _ = run(capsys, "sequence", "--bases", "2,2", "--count", "7", "--splits")
    assert code == 0
    assert out.splitlines() == [
        "j value exponents",
        "1 1 (0,0)",
        "2 2 (0,1)",
        "3 2 (1,0)",
        "4 4 (0,2)",
        "5 4 (1,1)",
        "6 4 (2,0)",
        "7 8 (0,3)",
        "splits: 1 2 4 7",
    ]


def test_sequence_mixed_bases(capsys):
    code, out, _ = run(capsys, "sequence", "--bases", "2,3", "--count", "7")
    assert code == 0
    assert out.splitlines()[1:] == [
        "1 1 (0,0)", "2 2 (1,0)", "3 3 (0,1)", "4 4 (2,0)",
        "5 6 (1,1)", "6 8 (3,0)", "7 9 (0,2)"]


def test_sequence_csv_and_json(capsys):
    code, out, _ = run(capsys, "sequence", "--bases", "2,2", "--count", "4",
                       "--splits", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "j,value,exponents,split", "1,1,0 0,1", "2,2,0 1,2", "3,2,1 0,", "4,4,0 2,3"]
    code, out, _ = run(capsys, "sequence", "--bases", "2,2", "--count", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["splits"] is None
    assert payload["terms"][1] == {"j": 2, "value": "2", "exponents": [0, 1]}


def test_sequence_split_regime_errors(capsys):
    code, _, err = run(capsys, "sequence", "--bases", "2,1", "--count", "3", "--splits")
    assert code == 1
    assert "base" in err
    code, _, _ = run(capsys, "sequence", "--bases", "2", "--count", "3", "--splits")
    assert code == 1


def test_byte_determinism_across_runs(capsys):
    seen = set()
    for _ in range(2):
        code, out, _ = run(capsys, "compute", "--pq", "2:1", "--pq", "3:1",
                           "--n", "0..40", "--splits", "--format", "json")
        assert code == 0
        seen.add(out)
    for _ in range(2):
        code, out, _ = run(capsys, "plan", "--graph", "K4", "--n", "6",
                           "--src", "2", "--dst", "3")
        assert code == 0
        seen.add(out)
    assert len(seen) == 2  # one unique output per command


def test_plan_validate_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--graph", "S3", "--n", "4",
                       "--src", "2", "--dst", "4")
    assert code == 0
    plan_file = tmp_path / "star.plan"
    plan_file.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(plan_file))
    assert code == 0
    assert out == "pass, 20 moves\n"
    code, out, _ = run(capsys, "validate", str(plan_file), "--format", "json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["moves_applied"] == 20
    assert payload["predicted"] == "20"


def test_validate_detects_truncation(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--graph", "P3", "--n", "2",
                       "--src", "1", "--dst", "3")
    assert code == 0
    lines = out.splitlines()
    (tmp_path / "bad.plan").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(tmp_path / "bad.plan"))
    assert code == 2
    assert out.startswith("fail:")


def test_validate_reads_stdin(capsys, monkeypatch):
    code, text, _ = run(capsys, "plan", "--graph", "K3", "--n", "3",
                        "--src", "1", "--dst", "2")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert out == "pass, 7 moves\n"


def test_validate_memory_follows_the_moves(tmp_path, capsys):
    # Disks past the moves read + 1 never move, so a huge header n costs nothing.
    header = "hanoi-plan v1; graph=K3; k=3; n=1000000000000; src=1; dst={}; predicted={}\n"
    path = tmp_path / "huge.plan"
    path.write_text(header.format(3, 7) + "1>3\n", encoding="utf-8")
    assert run(capsys, "validate", str(path))[:2] == (
        2, "fail: final position is not all on peg 3\n")
    path.write_text(header.format(1, 2) + "1>2\n2>1\n", encoding="utf-8")
    assert run(capsys, "validate", str(path))[:2] == (0, "pass, 2 moves\n")


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.plan")
    assert code == 4
    assert "error:" in err


def test_validate_malformed_file(tmp_path, capsys):
    (tmp_path / "junk.plan").write_text("not a plan\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(tmp_path / "junk.plan"))
    assert code == 4


@pytest.mark.parametrize("source", [
    "hanoi-plan v1; graph=K3; k=3; n=²; src=1; dst=3; predicted=0\n".encode(),
    "hanoi-plan v1; graph=K3; k=3; n=0; src=1; dst=3; predicted=²\n".encode(),
    b"hanoi-plan v1; graph=edges:1-2,1-2; k=2; n=1; src=1; dst=2; predicted=1\n1>2\n",
    b"hanoi-plan v1; graph=edges:1-2; k=3; n=1; src=1; dst=2; predicted=1\n1>2\n",
    b"hanoi-plan v1; graph=K3; k=3; n=1; src=1; dst=3; predicted=1\n1>3\n\xff\n",
    "hanoi-plan v1; graph=K3; k=3; n=1; src=1; dst=3; predicted=1\n1>٣\n".encode(),
    ("bfs", "--graph", "3; 1-²,2-3", "--n", "1", "--src", "1", "--dst", "3"),
    ("bfs", "--graph", "٣; 1-2,2-3", "--n", "1", "--src", "1", "--dst", "3"),
    ("bfs", "--graph", "+3; 1-2,2-3", "--n", "1", "--src", "1", "--dst", "3"),
], ids=["n-superscript", "predicted-superscript", "duplicate-edge", "disconnected",
        "not-utf8", "move-arabic-indic-digit", "bfs-edge-superscript",
        "bfs-pegs-arabic-indic-digit", "bfs-pegs-signed"])
def test_malformed_input_exits_4(tmp_path, capsys, source):
    if isinstance(source, bytes):
        path = tmp_path / "bad.plan"
        path.write_bytes(source)
        source = ("validate", str(path))
    code, _, err = run(capsys, *source)
    assert code == 4
    assert err.startswith("error: ")


def test_plan_rejects_custom_graphs(capsys):
    code, _, err = run(capsys, "plan", "--graph", "4; 1-2,2-3,3-4",
                       "--n", "2", "--src", "1", "--dst", "4")
    assert code == 1
    assert "named graphs" in err


def test_plan_unknown_name_is_io_error(capsys):
    code, _, _ = run(capsys, "plan", "--graph", "Q3", "--n", "2",
                     "--src", "1", "--dst", "3")
    assert code == 4


def test_plan_bad_endpoints(capsys):
    code, _, _ = run(capsys, "plan", "--graph", "S3", "--n", "2",
                     "--src", "1", "--dst", "3")  # center is not a leaf
    assert code == 1


def test_bfs_plain_and_json(capsys):
    code, out, _ = run(capsys, "bfs", "--graph", "4; 1-2,2-3,3-4",
                       "--n", "1", "--src", "1", "--dst", "4")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run(capsys, "bfs", "--graph", "K3", "--n", "3",
                       "--src", "1", "--dst", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["moves"] == "7"


def test_bfs_budget_flag(capsys, monkeypatch):
    code, _, err = run(capsys, "bfs", "--graph", "K4", "--n", "10",
                       "--src", "1", "--dst", "2", "--budget", "100")
    assert code == 3
    assert "budget" in err
    # refused from n alone, without formatting or building k**n
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    for n in ("100000", "10000000"):
        code, _, err = run(capsys, "bfs", "--graph", "K3", "--n", n, "--src", "1", "--dst", "3")
        assert code == 3
        assert err == f"error: 3**{n} states exceed the budget of 5000000\n"


def test_bfs_budget_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "50")
    code, _, _ = run(capsys, "bfs", "--graph", "K3", "--n", "4",
                     "--src", "1", "--dst", "3")
    assert code == 3
    # the flag wins over the environment
    monkeypatch.setenv(cli.BUDGET_ENV, "50")
    code, out, _ = run(capsys, "bfs", "--graph", "K3", "--n", "4",
                       "--src", "1", "--dst", "3", "--budget", "100")
    assert code == 0
    assert out == "15\n"
    for raw in ("junk", "٣"):
        monkeypatch.setenv(cli.BUDGET_ENV, raw)
        code, _, err = run(capsys, "bfs", "--graph", "K3", "--n", "1",
                           "--src", "1", "--dst", "3")
        assert code == 1, raw
        assert "not a nonnegative integer" in err, raw
    # a budget of 0 is read, then refused
    monkeypatch.setenv(cli.BUDGET_ENV, "0")
    code, _, err = run(capsys, "bfs", "--graph", "K3", "--n", "1",
                       "--src", "1", "--dst", "3")
    assert code == 1
    assert "must be at least 1" in err


def test_bfs_bad_graph_spec(capsys):
    code, _, _ = run(capsys, "bfs", "--graph", "3; 1-2", "--n", "1",
                     "--src", "1", "--dst", "3")  # disconnected
    assert code == 4
    code, _, _ = run(capsys, "bfs", "--graph", "Q7", "--n", "1",
                     "--src", "1", "--dst", "2")
    assert code == 4


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["seed"] == verify_mod.DEFAULT_SEED
    assert all(check["failures"] == 0 for check in payload["checks"])


def test_verify_reports_injected_fault(capsys, monkeypatch):
    def sabotage(rng, cap):
        result = verify_mod.CheckResult("sabotage")
        result.instances = 1
        result.fail(reason="injected")
        return result

    monkeypatch.setattr(verify_mod, "CHECKS", (sabotage,))
    code, out, _ = run(capsys, "verify")
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"][0]["first_failure"] == {"reason": "injected"}


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "compute", "--pq", "2", "--n", "3")[0] == 1
    assert run(capsys, "compute", "--pq", "2:1", "--n", "5..3")[0] == 1
    assert run(capsys, "compute", "--pq", "0:1", "--n", "1")[0] == 1
    assert run(capsys, "compute", "--pq", "2:1", "--n", "-4")[0] == 1
    assert run(capsys, "sequence", "--bases", "2,x", "--count", "3")[0] == 1
    # every outside integer takes ASCII digits only, with the tool's own message
    code, _, err = run(capsys, "compute", "--pq", "²:1", "--n", "1")
    assert code == 1
    assert "expected P:Q with positive integers, got '²:1'" in err
    for argv in (("compute", "--pq", "2:1", "--n", "٣"),
                 ("compute", "--pq", "2:1", "--n", "1_0"),
                 ("sequence", "--bases", "2,٣", "--count", "3"),
                 ("sequence", "--bases", "2,3", "--count", "+3"),
                 ("verify", "--max-n", "٣"),
                 ("bfs", "--graph", "K3", "--n", "2", "--src", "١", "--dst", "3"),
                 ("bfs", "--graph", "K3", "--n", "2", "--src", "1", "--dst", "+3"),
                 ("plan", "--graph", "K3", "--n", "2", "--src", "1", "--dst", "٣"),
                 ("plan", "--graph", "K3", "--n", "2", "--src", "-1", "--dst", "3"),
                 ("bfs", "--graph", "K3", "--n", "2", "--src", "1", "--dst", "3",
                  "--budget", "٩٩"),
                 ("verify", "--max-n", "1", "--seed", "-5"),
                 ("verify", "--max-n", "1", "--seed", "٣")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "expected" in err and "invalid" not in err, argv
    assert run(capsys)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_readme_cli_contract(capsys, monkeypatch):
    # README's example output, plan header and validate verdict are the
    # fixed CLI contract; each must be what the CLI prints.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```", text, re.M | re.S)
    command = "gfshanoi compute --pq 2:1 --pq 2:1 --n 1..6 --splits\n"
    assert run(capsys, *command.split()[1:]) == (0, blocks[blocks.index(command) + 1], "")
    header = next(block for block in blocks if block.startswith("hanoi-plan v1"))
    code, out, _ = run(capsys, "plan", "--graph", "K4", "--n", "3", "--src", "1", "--dst", "4")
    assert (code, out.splitlines()[0]) == (0, header.splitlines()[0])
    assert "`plan --graph K4 --n 8 --src 1 --dst 4`" in text
    verdict = re.search(r"`(pass, \d+ moves)`", text).group(1)
    code, out, _ = run(capsys, "plan", "--graph", "K4", "--n", "8", "--src", "1", "--dst", "4")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    assert run(capsys, "validate") == (0, verdict + "\n", "")


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "compute", "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gfshanoi", "compute", "--pq", "2:1", "--n", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "3 7 4 -"


def test_closed_stdout_is_quiet():
    with subprocess.Popen(
        [sys.executable, "-m", "gfshanoi", "sequence", "--bases", "2,3", "--count", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"j value exponents\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (4, b"")


def test_table_bytes_are_pinned(capsys):
    # Every format of both table commands, the argmin fallback, n = 0 rows,
    # count 0 and width-3 ordinals included; a change in any byte shows here.
    digest = hashlib.sha256()
    grids = [(["compute", "--pq", "2:1", "--pq", "2:1"], "--n", ("0", "0..12", "5..30"), True),
             (["compute", "--pq", "2:1", "--pq", "3:1", "--pq", "2:2"], "--n",
              ("0", "0..12", "5..30"), True),
             (["compute", "--pq", "1:2", "--pq", "2:1"], "--n", ("0", "0..12", "5..30"), True),
             (["compute", "--pq", "9:9"], "--n", ("0", "0..12", "5..30"), False),
             (["sequence", "--bases", "2,2"], "--count", ("0", "1", "40"), True),
             (["sequence", "--bases", "2,3,5"], "--count", ("0", "1", "40"), True),
             (["sequence", "--bases", "3"], "--count", ("0", "1", "40"), False)]
    for command, size_flag, sizes, splits in grids:
        for size in sizes:
            for fmt in ("plain", "csv", "json"):
                for extra in (([], ["--splits"]) if splits else ([],)):
                    code, out, _ = run(capsys, *command, size_flag, size, "--format", fmt, *extra)
                    digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "ab07ace8000b50579b427175be00af6827f4b3da0a8519996daef42a2eddf3bd"
    )
