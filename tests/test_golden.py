"""Golden corpus: every CLI report must match its committed bytes exactly,
and so must the library results on 48 generated pairs.

Inputs live in ``tests/data/golden/inputs`` and the expected reports in
``tests/data/golden/expected``. ``library_pairs.json`` holds 48 pairs drawn
by the benchmark generator (``bench/gen.py``, seeds 1 and 2, 12 regular and
12 non-regular pairs each) with their ``best_linear``, virtual welfare,
virtual rule and ``verify`` reports. After a deliberate change to a report,
rewrite the expected files and results with::

    PYTHONPATH=src python tests/test_golden.py

and list every field that would change, with its old and new value and
the relative change, without writing anything::

    PYTHONPATH=src python tests/test_golden.py --diff

which exits 1 when any golden file would change and 0 when none would.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys

import pytest

from agency import Instance, best_linear, from_spec, ironed, verify, virtual_rule, virtual_welfare
from agency.cli import _build_parser, main

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
        ["check-ic", "--instance", _inp("menu5_instance.json"), "--contract", _inp("menu5_contract.json")], 0),
    "check_ic_binary": (
        ["check-ic", "--instance", _inp("binary_instance.json"), "--contract", _inp("binary_contract.json")], 0),
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


#: argv that argparse rejects (exit 2) before any subcommand runs.
BAD_ARGV = (["analyze"], ["no-such-command"], ["sweep-alpha", "--instance", _inp("uniform.json"), "--steps", "x"],
            ["reproduce", "no_such_example"], ["verify", "--instance"])


def test_one_parser_serves_every_call():
    # one process: every golden call twice, a rejected argv before each
    parser = _build_parser()
    bad = iter(BAD_ARGV * (2 * len(CALLS)))
    for name in sorted(CALLS) * 2:
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            _run(next(bad))
        assert exc.value.code == 2
        argv, exit_code = CALLS[name]
        code, out = _run(argv)
        assert code == exit_code
        with open(_expected_path(name), encoding="utf-8", newline="") as fh:
            assert out == fh.read(), name
    assert _build_parser() is parser


LIBRARY = os.path.join(GOLDEN, "library_pairs.json")


def _library_results(pair: dict) -> dict:
    """``best_linear``, virtual welfare and rule, then every verdict."""
    inst, dist = Instance(**pair["instance"]), from_spec(pair["dist"])
    out = {"best_linear": list(best_linear(inst, dist))}
    if not dist.has_atoms:
        out["virtual_welfare"] = virtual_welfare(inst, dist)
        out["virtual_rule"] = virtual_rule(inst, ironed(dist)).to_dict()
    out["verify"] = {th: verify(inst, dist, th, **kw).to_dict() for th, kw in pair["verify"].items()}
    return out


def _library_pairs() -> list[dict]:
    with open(LIBRARY, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("k", range(48))
def test_library_results_bit_for_bit(k):
    pair = _library_pairs()[k]
    # JSON keeps every float's repr, so equal text means equal bits
    assert json.dumps(_library_results(pair), sort_keys=True) == json.dumps(pair["expected"], sort_keys=True)


def test_diff_lists_each_changed_leaf():
    old = _parsed('{"a": 1.0, "b": [1, "x"], "c": {"d": 2.0}, "f": 4}')
    new = _parsed('{"a": 1.5, "b": [1, "y"], "c": {"d": 2.0}, "e": 3, "f": 4.0}')
    assert list(_changes(old, new)) == [(".a", 1.0, 1.5), (".b[1]", "x", "y"), (".e", None, 3), (".f", 4, 4.0)]
    assert [_relative(a, b) for _, a, b in _changes(old, new)] == [
        "+5.00e-01 relative", "not numeric", "not numeric", "+0.00e+00 relative"]
    assert list(_changes(_parsed("alpha,revenue\n0.5,1\n"), _parsed("alpha,revenue\n0.5,1.25\n"))) == [
        ("[1][1]", 1.0, 1.25)]
    assert _largest(_changes(old, new)) == (".b[1]", "x", "y")
    shorter = _parsed('{"a": 1.0, "grid": [{"t": 1.0}, {"t": 2.0}, {"t": 3.0}, {"t": 4.0}], "n": 4}')
    longer = _parsed('{"a": 1.0, "grid": [{"t": 1.0}], "n": 1}')
    assert list(_changes(shorter, longer)) == [(".grid.length", 4, 1), (".n", 4, 1)]
    assert [_relative(a, b) for _, a, b in _changes(shorter, longer)] == ["-7.50e-01 relative"] * 2
    assert _largest([(".grid.length", 4, 1), (".a", 1.0, 1.5)]) == (".grid.length", 4, 1)
    assert _largest([(".a", 2.0, 2.5), (".b", -1.0, -2.0), (".c", 1.0, 1.5)]) == (".b", -1.0, -2.0)
    assert _largest([]) is None


def test_diff_reports_whether_anything_changed(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys.modules[__name__], "CALLS", {"reproduce_gap": CALLS["reproduce_gap"]})
    monkeypatch.setattr(sys.modules[__name__], "_library_pairs", lambda: [])
    assert print_diff() is False
    stale = tmp_path / "reproduce_gap.out"
    stale.write_text('{"stale": 1.0}\n', encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "_expected_path", lambda name: str(stale))
    assert print_diff() is True
    assert "expected/reproduce_gap.out: largest change" in capsys.readouterr().out


def _parsed(text: str):
    """A report as data: JSON, or CSV rows with numeric cells as floats."""
    try:
        return json.loads(text)
    except ValueError:
        return [[_number(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _changes(old, new, path: str = ""):
    """``(path, old, new)`` for every leaf that differs between two parsed
    reports; a missing leaf is ``None``, and a list whose length changed is
    the one leaf ``path.length``, its old and new length."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _changes(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}.length", len(old), len(new)
            return
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{k}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _relative(old, new) -> str:
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)]
    if not all(numbers):
        return "not numeric"
    return f"{(new - old) / abs(old):+.2e} relative" if old else "from zero"


def _largest(changes):
    """The change ``(path, old, new)`` of largest relative size, or None; a
    change that is not numeric or starts from zero counts as infinite."""
    def size(change):
        _, old, new = change
        try:
            return abs(new - old) / abs(old)
        except (TypeError, ZeroDivisionError):
            return math.inf
    return max(changes, key=size, default=None)


def print_diff() -> bool:
    """Print each field of the reports and library results that the code
    now computes differently from the committed files, then one line per
    golden file with its largest relative change; write nothing. True if
    any field changed."""
    changed = {}
    for name, (argv, _) in sorted(CALLS.items()):
        with open(_expected_path(name), encoding="utf-8", newline="") as fh:
            old = _parsed(fh.read())
        changed[f"expected/{name}.out"] = list(_changes(old, _parsed(_run(argv)[1])))
    changed["library_pairs.json"] = [
        (f"[{k}]{path}", a, b) for k, pair in enumerate(_library_pairs())
        for path, a, b in _changes(pair["expected"], json.loads(json.dumps(_library_results(pair))))]
    for file, changes in changed.items():
        for path, a, b in changes:
            print(f"{file}{path}: {a!r} -> {b!r} ({_relative(a, b)})")
    for file, changes in changed.items():
        top = _largest(changes)
        print(f"{file}: " + (f"largest change {_relative(*top[1:])} at {top[0]}" if top else "unchanged"))
    return any(changed.values())


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if print_diff() else 0)
    os.makedirs(os.path.join(GOLDEN, "expected"), exist_ok=True)
    for name, (argv, exit_code) in sorted(CALLS.items()):
        code, out = _run(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}")
        with open(_expected_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    pairs = _library_pairs()
    for pair in pairs:
        pair["expected"] = _library_results(pair)
    with open(LIBRARY, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(pair, sort_keys=True) for pair in pairs) + "\n]\n")  # a line per pair
