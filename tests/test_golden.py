"""Golden CLI corpus: every report must match its committed bytes exactly.

Inputs live in ``tests/data/golden/inputs`` and the expected reports in
``tests/data/golden/expected``. After a deliberate change to a report,
rewrite the expected files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from agency.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


def _inp(name: str) -> str:
    return os.path.join(GOLDEN, "inputs", name)


#: name -> (argv, expected exit code).
CALLS = {
    "analyze_uniform": (["analyze", "--instance", _inp("uniform.json")], 0),
    "analyze_exponential": (["analyze", "--instance", _inp("exponential.json")], 0),
    "analyze_smoothed": (["analyze", "--instance", _inp("smoothed.json")], 0),
    "sweep_uniform": (["sweep-alpha", "--instance", _inp("uniform.json"), "--steps", "21"], 0),
    "sweep_exponential": (
        ["sweep-alpha", "--instance", _inp("exponential.json"), "--steps", "21", "--format", "csv"], 0),
    "sweep_smoothed": (["sweep-alpha", "--instance", _inp("smoothed.json"), "--steps", "21"], 0),
    "verify_uniform": (["verify", "--instance", _inp("uniform.json"), "--theorem", "upper_n"], 0),
    "verify_exponential": (
        ["verify", "--instance", _inp("exponential.json"), "--theorem", "rev_implications",
         "--variant", "exponential"], 0),
    "verify_smoothed": (
        ["verify", "--instance", _inp("smoothed.json"), "--theorem", "smooth", "--epsilon", "0.1"], 0),
    "check_ic_menu5": (
        ["check-ic", "--instance", _inp("menu5_instance.json"), "--contract", _inp("menu5_contract.json"),
         "--grid", "64"], 0),
    "check_ic_binary": (
        ["check-ic", "--instance", _inp("binary_instance.json"), "--contract", _inp("binary_contract.json"),
         "--grid", "64"], 0),
    "reproduce_gap": (["reproduce", "gap"], 0),
    "reproduce_scaling_uniform": (["reproduce", "scaling_uniform"], 0),
    "reproduce_non_monotone": (["reproduce", "non_monotone"], 0),
    "reproduce_menu": (["reproduce", "menu"], 0),
    "reproduce_non_implementable": (["reproduce", "non_implementable"], 0),
    "reproduce_smoothed": (["reproduce", "smoothed"], 0),
}


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _expected_path(name: str) -> str:
    return os.path.join(GOLDEN, "expected", name + ".out")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_bytes(name):
    argv, exit_code = CALLS[name]
    code, out = _run(argv)
    assert code == exit_code
    with open(_expected_path(name), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN, "expected"), exist_ok=True)
    for name, (argv, exit_code) in sorted(CALLS.items()):
        code, out = _run(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}")
        with open(_expected_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
