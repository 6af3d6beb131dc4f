import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smallcox import verify as verify_module
from smallcox.cli import dispatch
from smallcox.verify import Claim, verify

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("suite", ["tits", "congruence", "rewriting",
                                   "crystallo", "complexes"])
def test_suite_passes(suite):
    report = verify(suite)
    assert report.passed, [c for c in report.claims if not c.ok]


def test_image_exits_zero(capsys):
    assert dispatch(["image", "--family", "twin", "-n", "4", "-m", "3"]) == 0
    assert capsys.readouterr().out == "order 24\n"


def test_budget_exits_one(capsys):
    argv = ["image", "--family", "twin", "-n", "4", "-m", "5", "--cap", "10"]
    assert dispatch(argv) == 1
    assert "budget" in capsys.readouterr().err


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        dispatch(["image", "--family", "twin", "-n", "4"])
    assert exc.value.code == 2


def test_failed_claim_exits_one(monkeypatch, capsys):
    failing = Claim("always-false", "a claim that fails", "1", "2", False, 0.0)
    monkeypatch.setitem(verify_module._SUITE_BUILDERS, "tits",
                        lambda: [failing])
    assert dispatch(["verify", "--suite", "tits"]) == 1
    assert "FAIL suite tits: 0/1 claims" in capsys.readouterr().out


def test_json_is_byte_identical(capsys):
    argv = ["quotient", "--check", "alternating", "-n", "4", "-m", "5",
            "--json"]
    outputs = []
    for _ in range(2):
        assert dispatch(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["kernel_order"] == 12


def _source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "smallcox", "image", "--family", "twin",
         "-n", "4", "-m", "3"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "order 24\n"


def test_cli_import_needs_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, smallcox.cli; print('numpy' in sys.modules)"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
