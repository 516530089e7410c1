import json
import math
from pathlib import Path

import pytest

from agency import incentives
from agency.cli import main


@pytest.fixture
def instance_file(tmp_path):
    payload = {
        "gammas": [0, 1, 3, 5.5],
        "rewards": [0, 100, 300],
        "F": [[1, 0, 0], [0, 1, 0], [0, 0.5, 0.5], [0, 0, 1]],
        "dist": {"kind": "uniform", "low": 0.0, "high": 80.0},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_full_report(self, instance_file, capsys):
        code, out, _ = run(["analyze", "--instance", instance_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["metrics"]["best_linear"]["alpha"] == pytest.approx(0.5, abs=1e-6)
        assert "sha256" in report["instance"]
        assert report["tolerances"]["verdict_relative"] == 1e-6

    def test_gapped_distribution(self, instance_file, tmp_path, capsys):
        # the virtual-cost slack once priced points inside the gap (30, 50): exit 1
        payload = json.loads(Path(instance_file).read_text())
        payload["dist"] = {"kind": "mixture", "parts": [
            {"weight": 0.4, "dist": {"kind": "uniform", "low": 0, "high": 30}},
            {"weight": 0.6, "dist": {"kind": "uniform", "low": 50, "high": 90}}]}
        p = tmp_path / "gapped.json"
        p.write_text(json.dumps(payload))
        code, out, err = run(["analyze", "--instance", str(p)], capsys)
        assert (code, err) == (0, "")
        rhr, = (c for c in json.loads(out)["conditions"] if c["kind"] == "rhr")
        assert math.isfinite(rhr["params"]["virtual_cost_slack"])

    def test_byte_stable(self, instance_file, capsys):
        _, out1, _ = run(["analyze", "--instance", instance_file], capsys)
        _, out2, _ = run(["analyze", "--instance", instance_file], capsys)
        assert out1 == out2

    def test_malformed_row_sum(self, tmp_path, capsys):
        payload = {
            "gammas": [0, 1],
            "rewards": [0, 1],
            "F": [[1, 0], [0, 0.97]],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code, _, err = run(["analyze", "--instance", str(p)], capsys)
        assert code == 1
        assert "F row 1 sums to 0.97" in err

    def test_missing_key(self, tmp_path, capsys):
        p = tmp_path / "nokey.json"
        p.write_text(json.dumps({"gammas": [0, 1], "rewards": [0, 1]}))
        code, _, err = run(["analyze", "--instance", str(p)], capsys)
        assert code == 1
        assert "missing key 'F'" in err

    def test_missing_dist(self, tmp_path, capsys):
        p = tmp_path / "nodist.json"
        p.write_text(json.dumps({"gammas": [0, 1], "rewards": [0, 1], "F": [[1, 0], [0, 1]]}))
        code, _, err = run(["analyze", "--instance", str(p)], capsys)
        assert code == 1
        assert "no distribution" in err


class TestSweep:
    def test_csv(self, instance_file, capsys):
        code, out, _ = run(
            ["sweep-alpha", "--instance", instance_file, "--steps", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,revenue"
        assert len(lines) == 8  # header + 5 rows + best alpha/revenue

    def test_json(self, instance_file, capsys):
        code, out, _ = run(["sweep-alpha", "--instance", instance_file, "--steps", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["sweep"]) == 3


class TestVerify:
    def test_pass_exit_zero(self, instance_file, capsys):
        code, out, _ = run(
            ["verify", "--instance", instance_file, "--theorem", "upper_n"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"]["passed"] is True

    def test_hypothesis_not_met_exit_three(self, instance_file, tmp_path, capsys):
        dist = tmp_path / "narrow.json"
        dist.write_text(json.dumps({"kind": "uniform", "low": 0.0, "high": 0.5}))
        code, out, _ = run(
            ["verify", "--instance", instance_file, "--dist", str(dist),
             "--theorem", "lin_bounded_2"], capsys
        )
        assert code == 3

    def test_forced_parameters_can_fail_exit_two(self, tmp_path, capsys):
        # geometric instance under dispersed types: the half share earns
        # nothing, so a user-forced beta = eta = 1 guarantee cannot hold
        from agency.examples import scaling_uniform

        ex = scaling_uniform(n=5, delta=0.1, c_bar=5.0)
        payload = {
            "gammas": list(ex.instance.gammas),
            "rewards": list(ex.instance.rewards),
            "F": [list(r) for r in ex.instance.outcome_probs],
            "dist": {"kind": "uniform", "low": 1.0, "high": 5.0},
        }
        p = tmp_path / "scaling.json"
        p.write_text(json.dumps(payload))
        code, out, _ = run(
            ["verify", "--instance", str(p), "--theorem", "slow",
             "--alpha", "0.5", "--beta", "1.0", "--eta", "1.0", "--kappa", "2.0"],
            capsys,
        )
        assert code == 2
        verdict = json.loads(out)["verdict"]
        assert verdict["hypothesis_ok"] is True
        assert verdict["passed"] is False

    def test_nan_argument_exits_one(self, instance_file, capsys):
        # a nan beta once read as a guarantee that failed on the instance
        code, out, err = run(["verify", "--instance", instance_file, "--theorem", "slow", "--beta", "nan"], capsys)
        assert (code, out, err) == (1, "", "beta must not be nan\n")

    def test_smooth_variant(self, instance_file, tmp_path, capsys):
        dist = tmp_path / "smooth.json"
        dist.write_text(json.dumps({
            "kind": "mixture",
            "parts": [
                {"weight": 0.9, "dist": {"kind": "atom", "at": 1.0}},
                {"weight": 0.1, "dist": {"kind": "uniform", "low": 0.0, "high": 2.0}},
            ],
        }))
        code, _, _ = run(
            ["verify", "--instance", instance_file, "--dist", str(dist),
             "--theorem", "smooth", "--epsilon", "0.1"], capsys
        )
        assert code == 0


class TestReproduce:
    def test_menu(self, capsys):
        code, out, _ = run(["reproduce", "menu"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "best_responses_reproduce_rule" in names

    def test_gap_small(self, capsys):
        code, out, _ = run(["reproduce", "gap", "--n", "5", "--delta", "0.1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert any(c["name"] == "welfare_matches_machinery" for c in report["checks"])

    def test_scaling_uniform(self, capsys):
        code, out, _ = run(["reproduce", "scaling_uniform"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_non_monotone_explicit_epsilon(self, capsys):
        code, _, err = run(["reproduce", "non_monotone", "--epsilon", "0.1"], capsys)
        assert code == 1
        assert "epsilon < delta" in err

    def test_smoothed(self, capsys):
        code, out, _ = run(["reproduce", "smoothed", "--epsilon", "0.5"], capsys)
        assert code == 0

    def test_menu_defaults_are_the_builders(self, capsys):
        # the builder alone holds the defaults; passing them changes no byte
        _, plain, _ = run(["reproduce", "menu"], capsys)
        code, explicit, _ = run(["reproduce", "menu", "--n", "8", "--r1", "10"], capsys)
        assert code == 0 and explicit == plain


class TestCheckIc:
    def test_linear_contract_passes(self, instance_file, tmp_path, capsys, monkeypatch):
        # the summary and the rows come from one evaluation of D*
        dstar_calls = []
        menu_dstar = incentives._menu_dstar
        monkeypatch.setattr(incentives, "_menu_dstar", lambda *a: dstar_calls.append(1) or menu_dstar(*a))
        contract = {
            "profiles": [[0.0, 50.0, 150.0]],
            "assignment": {"breakpoints": [80.0, 0.0], "profile_index": [0]},
            "u_bar": 0.0,
        }
        p = tmp_path / "contract.json"
        p.write_text(json.dumps(contract))
        code, out, _ = run(["check-ic", "--instance", instance_file, "--contract", str(p)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["passed"] is True
        assert len(report["grid"]) == report["summary"]["checked_types"]
        assert len(dstar_calls) == 1
        # the checkpoints are exact, so there is no grid size to set
        with pytest.raises(SystemExit):
            main(["check-ic", "--instance", instance_file, "--contract", str(p), "--grid", "64"])

    def test_bad_contract_file(self, instance_file, tmp_path, capsys):
        p = tmp_path / "contract.json"
        p.write_text(json.dumps({"profiles": [[0, 1, 2]]}))
        code, _, err = run(
            ["check-ic", "--instance", instance_file, "--contract", str(p)], capsys
        )
        assert code == 1
        assert "missing key 'assignment'" in err

    def test_ascending_breakpoints_rejected(self, instance_file, tmp_path, capsys):
        contract = {
            "profiles": [[0.0, 50.0, 150.0]],
            "assignment": {"breakpoints": [0.0, 40.0, 80.0], "profile_index": [0, 0]},
        }
        p = tmp_path / "contract.json"
        p.write_text(json.dumps(contract))
        code, _, err = run(
            ["check-ic", "--instance", instance_file, "--contract", str(p)], capsys
        )
        assert code == 1
        assert str(p) in err
        assert "breakpoints" in err

    @pytest.mark.parametrize("edit, needle", [
        (lambda c: c["assignment"].update(profile_index=[1, 0.5, 0]), "profile_index"),
        (lambda c: c["assignment"].update(profile_index=[1, 1.0, 0]), "profile_index"),
        (lambda c: c["assignment"].update(profile_index=[1, True, 0]), "profile_index"),
        (lambda c: c["profiles"][1].pop(), "profiles[1] has 2 payments, expected 3"),
        (lambda c: c["assignment"]["breakpoints"].__setitem__(1, float("nan")), "breakpoints"),
        # strings compare among themselves, inf computes a verdict on NaN, and
        # None fails a comparison that names no key
        (lambda c: c["assignment"].update(breakpoints=["3", "2.1", "1.3", "0"]), "breakpoints"),
        (lambda c: c["assignment"].update(breakpoints=[float("inf"), 2.1, 1.3, 0]), "breakpoints"),
        (lambda c: c["assignment"]["breakpoints"].__setitem__(1, None), "breakpoints"),
    ], ids=["half_index", "float_index", "bool_index", "short_profile", "nan_breakpoint", "string_breakpoints",
            "inf_breakpoint", "null_breakpoint"])
    @pytest.mark.filterwarnings("error")
    def test_malformed_golden_contract_names_the_file(self, edit, needle, tmp_path, capsys):
        golden = Path(__file__).parent / "data" / "golden" / "inputs"
        contract = json.loads((golden / "binary_contract.json").read_text())
        edit(contract)
        p = tmp_path / "contract.json"
        p.write_text(json.dumps(contract))
        argv = ["check-ic", "--instance", str(golden / "binary_instance.json"), "--contract", str(p)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert str(p) in err and needle in err


    @pytest.mark.parametrize("edit, needle", [
        (lambda c: c.update(u_bar=float("nan")), "u_bar"),
        (lambda c: c.update(u_bar=True), "u_bar"),
        (lambda c: c.update(u_bar="0"), "u_bar"),
        (lambda c: c["profiles"][0].__setitem__(1, True), "profiles[0][1]"),
        (lambda c: c["profiles"][1].__setitem__(1, "3"), "profiles[1][1]"),
        (lambda c: c["profiles"][0].__setitem__(2, None), "profiles[0][2]"),
    ], ids=["nan_u_bar", "bool_u_bar", "string_u_bar", "bool_payment", "string_payment", "null_payment"])
    @pytest.mark.filterwarnings("error")
    def test_non_numeric_contract_values_name_the_key(self, edit, needle, tmp_path, capsys):
        # float() would coerce each of these, and NaN would be echoed as "nan"
        golden = Path(__file__).parent / "data" / "golden" / "inputs"
        contract = json.loads((golden / "binary_contract.json").read_text())
        edit(contract)
        p = tmp_path / "contract.json"
        p.write_text(json.dumps(contract))
        argv = ["check-ic", "--instance", str(golden / "binary_instance.json"), "--contract", str(p)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert f"{p}: {needle}" in err and "finite number" in err

    @pytest.mark.parametrize("edit, needle", [
        (lambda c: c["gammas"].__setitem__(1, "0.6"), "gammas[1]"),
        (lambda c: c["rewards"].__setitem__(1, True), "rewards[1]"),
        (lambda c: c["F"][1].__setitem__(2, "0.3"), "F[1][2]"),
        (lambda c: c["F"][2].__setitem__(0, None), "F[2][0]"),
    ], ids=["string_gamma", "bool_reward", "string_probability", "null_probability"])
    def test_non_numeric_instance_values_name_the_key(self, edit, needle, tmp_path, capsys):
        golden = Path(__file__).parent / "data" / "golden" / "inputs"
        instance = json.loads((golden / "binary_instance.json").read_text())
        edit(instance)
        p = tmp_path / "instance.json"
        p.write_text(json.dumps(instance))
        argv = ["check-ic", "--instance", str(p), "--contract", str(golden / "binary_contract.json")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert f"{p}: {needle}" in err and "finite number" in err


@pytest.mark.parametrize("dist, key", [
    ({"kind": "uniform", "low": 0, "high": "9"}, "high"),
    ({"kind": "uniform", "low": 0, "high": None}, "high"),
    ({"kind": "exponential", "rate": "2"}, "rate"),
    ({"kind": "mixture", "parts": [{"weight": "1", "dist": {"kind": "uniform", "low": 0, "high": 9}}]},
     "parts[0].weight"),
    ({"kind": "piecewise", "segments": [{"from": 0, "to": "1", "density": 1}]}, "segments[0].to"),
    ({"kind": "atom", "at": True}, "at"),
], ids=["string_high", "null_high", "string_rate", "string_weight", "string_segment_end", "bool_atom"])
def test_non_numeric_dist_values_name_the_key(dist, key, tmp_path, capsys):
    # strings once raised a TypeError traceback; true and "1" became 1.0
    golden = Path(__file__).parent / "data" / "golden" / "inputs"
    instance = json.loads((golden / "uniform.json").read_text())
    instance["dist"] = dist
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(instance))
    code, out, err = run(["analyze", "--instance", str(p)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"{p}: dist: distribution kind '{dist['kind']}' key '{key}' must be a finite number")


def test_grid_env_ignored(instance_file, capsys, monkeypatch):
    # the scan density is a constant: the environment cannot change a report
    _, plain, _ = run(["analyze", "--instance", instance_file], capsys)
    monkeypatch.setenv("AGENCY_GRID", "512")
    code, out, _ = run(["analyze", "--instance", instance_file], capsys)
    assert code == 0
    assert out == plain
