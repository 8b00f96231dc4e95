"""End-to-end tests for the command-line interface (in-process)."""

import ast
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gfshanoi.cli as cli
import gfshanoi.gfs as gfs
import gfshanoi.verify as verify_mod
from gfshanoi.gfs import GfsTable
from gfshanoi.smooth import MAX_BASES

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
    monkeypatch.setattr(gfs, "_gfs_walk", lambda params, n_max: iter([0] + [1] * n_max))
    code, _, err = run(capsys, "compute", "--pq", "2:1", "--n", "0..4", "--oracle")
    assert code == 2
    assert "mismatch" in err


def test_compute_memory_follows_the_rows(capsys):
    # One row of a two-base family, where nearly every run is one term: the
    # walk keeps G(n - 1) and G(n), not all n + 1 values.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "compute", "--pq", "2:1", "--pq", "3:1", "--n", "100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("n value diff split\n100000 ")
    assert peak < 2 * 2**20, peak


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


def test_validate_refuses_a_predicted_past_the_int_limit():
    # The header's digits are valid, so only Python's int/str conversion
    # limit (its default, 4,300 digits, here) stands between them and an int.
    text = "hanoi-plan v1; graph=K3; k=3; n=1; src=1; dst=3; predicted=" + "9" * 5000 + "\n1>3\n"
    proc = subprocess.run([sys.executable, "-m", "gfshanoi", "validate"], input=text,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", (
        "error: header field predicted has 5000 digits, more than Python's int/str "
        "conversion limit\n"))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("argv, text, out", [
    (("validate",), "hanoi-plan v1; graph=K2000; k=2000; n=1; src=1; dst=2; predicted=1\n1>2\n",
     "pass, 1 moves\n"),
    (("validate",), "hanoi-plan v1; graph=K100000; k=100000; n=1; src=1; dst=2; predicted=1\n"
     "1>2\n", "pass, 1 moves\n"),
    (("bfs", "--graph", "K2000", "--n", "1", "--src", "1", "--dst", "2"), "", "1\n"),
    (("bfs", "--graph", "K20000", "--n", "1", "--src", "1", "--dst", "20000"), "", "1\n"),
    (("bfs", "--graph", "S20000", "--n", "1", "--src", "2", "--dst", "20001"), "", "2\n"),
], ids=["validate-K2000", "validate-K100000", "bfs-K2000", "bfs-K20000", "bfs-S20000"])
def test_a_big_graph_name_costs_no_edge_list(argv, text, out):
    # K_k answers adjacency by rule, so these fit in 256 MB of address
    # space, in the child only; K2000's edge set alone once took about 600 MB.
    # The search takes neighbours only for pegs whose top disk moves, so
    # K20000 at n = 1 needs one peg's list, not one per peg.
    proc = subprocess.run([sys.executable, "-m", "gfshanoi", *argv], input=text,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("argv, text", [
    (("bfs", "--graph", "3; 1-2,2-" + "3" * 5000, "--n", "1", "--src", "1", "--dst", "2"), ""),
    (("validate",), "hanoi-plan v1; graph=edges:1-2,2-" + "3" * 5000
     + "; k=3; n=1; src=1; dst=2; predicted=1\n1>2\n"),
], ids=["bfs-graph", "validate-header"])
def test_edge_labels_past_the_int_limit_exit_4(argv, text):
    proc = subprocess.run([sys.executable, "-m", "gfshanoi", *argv], input=text,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", (
        "error: edge label has 5000 digits, more than Python's int/str conversion limit\n"))


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


def test_main_leaves_no_cyclic_garbage(tmp_path, capsys):
    # In-process callers hold cyclic garbage until the next collection.  One
    # parser serves every call (its parser and actions refer to each other),
    # and JSON is written without json's indenting encoder, whose closures
    # refer to each other, in the bytes that encoder writes.
    plan_file = tmp_path / "k4.plan"
    plan_file.write_text(run(capsys, "plan", "--graph", "K4", "--n", "6", "--src", "1",
                             "--dst", "4")[1], encoding="utf-8")
    calls = [
        ["compute", "--pq", "2:1", "--pq", "2:1", "--n", "0..12", "--splits", "--format", "json"],
        ["sequence", "--bases", "2,3", "--count", "12", "--splits", "--format", "json"],
        ["plan", "--graph", "K4", "--n", "6", "--src", "1", "--dst", "4"],
        ["validate", str(plan_file), "--format", "json"],
        ["bfs", "--graph", "P3", "--n", "4", "--src", "1", "--dst", "2", "--format", "json"],
        ["verify", "--max-n", "2"],
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in calls:
            run(capsys, *argv)  # loads the modules the subcommand imports
            gc.collect()
            code, out, _ = run(capsys, *argv)
            assert (code, gc.collect()) == (0, 0), argv[0]
            if argv[0] != "plan":
                assert out == json.dumps(json.loads(out), indent=2) + "\n", argv[0]
    finally:
        if enabled:
            gc.enable()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    calls = [
        (0, ["sequence", "--bases", "2,3", "--count", "100", "--format", "json"]),
        (1, ["plan", "--graph", "S3", "--n", "2", "--src", "1", "--dst", "3"]),
        (4, ["plan", "--graph", "Q3", "--n", "2", "--src", "1", "--dst", "3"]),
    ]
    enabled = gc.isenabled()
    try:
        for start in (True, False):
            for code, argv in calls:
                (gc.enable if start else gc.disable)()
                assert run(capsys, *argv)[0] == code, argv
                assert gc.isenabled() is start, (start, argv)
    finally:
        (gc.enable if enabled else gc.disable)()


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


def test_readme_library_example():
    # README's "Library in one minute" names are fixed; each commented
    # expression there must evaluate to the value its comment starts with.
    block = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(1)
    lines = block.splitlines()
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        assert re.match(re.escape(repr(value)) + r"(\D|$)", comment), (comment, value)
        values.append(value)
    assert values == [49, 49, [1, 2, 2, 4, 4, 4], 4, 49, True, 13]


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


def test_wide_sequence_prints_every_row():
    # the widest family nests MAX_BASES generators in a fresh process
    zeros = ",".join(["0"] * MAX_BASES)
    proc = subprocess.run(
        [sys.executable, "-m", "gfshanoi", "sequence", "--bases", ",".join(["2"] * MAX_BASES),
         "--count", "3"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "j value exponents", f"1 1 ({zeros})",
        f"2 2 ({zeros[:-1]}1)", f"3 2 ({zeros[:-3]}1,0)"]


@pytest.mark.parametrize("argv, width", [
    (("sequence", "--bases", ",".join(["2"] * (MAX_BASES + 1)), "--count", "3"), MAX_BASES + 1),
    (("sequence", "--bases", ",".join(["2"] * 600), "--count", "3", "--splits"), 600),
    (("compute", *["--pq", "2:1"] * (MAX_BASES + 1), "--n", "3"), MAX_BASES + 1),
    (("plan", "--graph", f"K{MAX_BASES + 3}", "--n", "3", "--src", "1", "--dst", "2"),
     MAX_BASES + 1),
    (("plan", "--graph", f"S{MAX_BASES + 2}", "--n", "3", "--src", "2", "--dst", "3"),
     MAX_BASES + 1),
], ids=["sequence", "sequence-600", "compute", "plan-K", "plan-S"])
def test_wider_families_exit_1(capsys, argv, width):
    assert run(capsys, *argv) == (
        1, "", f"error: a family has at most {MAX_BASES} bases ({MAX_BASES + 2} pegs), "
               f"not {width}\n")


def test_cli_import_skips_dataclasses_and_verify():
    # -S leaves out site, whose .pth files may import anything.  A bare
    # package import loads no submodule, and the CLI loads neither typing
    # nor json.  A compute run loads neither the puzzle side nor the plan
    # format.  The child runs verify after the checks, so its lazy import
    # is the first one.
    code = (
        "import sys, gfshanoi\n"
        "bare = [m for m in sys.modules if m.startswith('gfshanoi.')]\n"
        "import gfshanoi.cli\n"
        "heavy = [m for m in ('typing', 'json', 'dataclasses', 'inspect', 'pathlib',"
        " 'gfshanoi.verify') if m in sys.modules]\n"
        "gfshanoi.cli.main(['compute', '--pq', '2:1', '--pq', '2:1', '--n', '3', '--splits',"
        " '--oracle'])\n"
        "puzzle = [m for m in ('gfshanoi.hanoi', 'gfshanoi.planfile') if m in sys.modules]\n"
        "code = gfshanoi.cli.main(['verify', '--max-n', '1'])\n"
        "from gfshanoi import run_suite\n"
        "print(bare, heavy, puzzle, code, run_suite.__module__, file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        0, "oracle: match (4 checked)\n[] [] [] 0 gfshanoi.verify\n")
    head, row, report = proc.stdout.split("\n", 2)
    assert (head, row) == ("n value diff split", "3 5 2 2")
    assert json.loads(report)["ok"] is True


def test_every_export_is_the_object_its_module_defines():
    import gfshanoi

    owners = {name: module for module, names in gfshanoi._EXPORTS.items() for name in names}
    assert len(owners) == sum(map(len, gfshanoi._EXPORTS.values()))  # each name once
    assert sorted(gfshanoi.__all__) == sorted([*owners, "__version__"])
    assert set(gfshanoi.__all__) <= set(dir(gfshanoi))
    for name, module in owners.items():
        value = getattr(gfshanoi, name)
        assert getattr(gfshanoi, module) is sys.modules[f"gfshanoi.{module}"]
        assert value is getattr(sys.modules[f"gfshanoi.{module}"], name), name
        assert getattr(value, "__module__", f"gfshanoi.{module}") == f"gfshanoi.{module}", name
    # Names that moved keep their old homes, as the same objects; hanoi's
    # names from gfs load gfs on first use.
    moved = [("hanoi", "smooth", ("BudgetError", "DEFAULT_STATE_BUDGET")),
             ("hanoi", "gfs", ("gfs_fast", "optimal_split")),
             ("planfile", "smooth", ("ParseError",))]
    for old, new, names in moved:
        for name in names:
            assert getattr(getattr(gfshanoi, old), name) is getattr(getattr(gfshanoi, new), name)
    names = {}
    exec("from gfshanoi import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(gfshanoi.__all__)
    with pytest.raises(AttributeError, match="module 'gfshanoi' has no attribute 'nope'"):
        gfshanoi.nope  # noqa: B018


def test_long_stream_bytes_are_pinned(capsys):
    # 20,000 terms each.  Equal values reach every merge level from both of
    # its branches, through repeated bases (2,2,2) and dependent ones (4 =
    # 2**2, 6 = 2*3), so the order within each run of equal values shows here.
    for bases, want in (
            ("2,2,2", "4673bb7dc0848ab847ca53494f75e6699efba9805e204c5a22b144b8487c7272"),
            ("4,6,2,7,3", "6f73848a1e983c832c8b598452a5a1e592f6d15694f8aaafaad6e8add6223a7c")):
        code, out, _ = run(capsys, "sequence", "--bases", bases, "--count", "20000",
                           "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, bases


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
