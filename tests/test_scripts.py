"""The scripts under scripts/, run as a user runs them: a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_star_gap_report_rows():
    proc = run_script("star_gap_report.py", "--leaves", "3", "--max-n", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-3:] == ["1 2 2 0", "2 6 6 0", "3 12 12 0"]


def test_star_gap_report_stops_at_the_budget():
    proc = run_script("star_gap_report.py", "--leaves", "3", "--max-n", "6", "--budget", "1000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[2:] == [
        "1 2 2 0", "2 6 6 0", "3 12 12 0", "4 20 20 0",
        "# stopped at n=5: 4**5 states exceed the budget of 1000"]


@pytest.mark.parametrize("args", [("--budget", "0", "--max-n", "2"), ("--leaves", "1"),
                                  ("--src", "1")], ids=["budget-0", "leaves-1", "src-1"])
def test_star_gap_report_refusals(args):
    proc = run_script("star_gap_report.py", *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
