"""Command-line surface: file ingestion and machine-readable reports.

Instance files are JSON objects with keys ``gammas``, ``rewards``, ``F``,
and optionally ``dist`` (a tagged distribution record). Reports are JSON
with a ``schema_version`` field; tables can also be emitted as CSV.
Reports are byte-stable for fixed inputs: no clocks, no randomness.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from functools import cache

import numpy as np

from . import __version__
from .conditions import (
    SCAN_POINTS,
    VERDICT_TOL,
    linear_bounded_params,
    rhr_bound_alpha_hat,
    slowly_increasing_beta,
    small_tail_eta,
    verify,
)
from .examples import EXAMPLE_IDS, build, minimal_linear_alpha, non_monotone_audit
from .incentives import (
    CURVATURE_TOL,
    MenuContract,
    certify_non_implementable_at,
    check_menu_ic,
    menu_induced_pieces,
    menu_revenue,
    menu_size,
)
from .instance import ROW_SUM_TOL, TIE_TOL, Instance, PaymentProfile, validate
from .metrics import best_linear, compute_metrics, linear_revenue, welfare
from .typedist import (IRON_GRID, MASS_TOL, AtomPresentError, DistributionError, TypeDistribution, from_spec,
                       ironed, to_spec)
from .allocation import virtual_rule

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3


class InputError(Exception):
    """Malformed input file; the message names file, key, and constraint."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def load_instance(path: str) -> tuple[Instance, TypeDistribution | None]:
    raw = _load_json(path)
    for key in ("gammas", "rewards", "F"):
        if key not in raw:
            raise InputError(f"{path}: missing key '{key}'")
        if not isinstance(raw[key], list):
            raise InputError(f"{path}: key '{key}' must be an array")
    try:
        inst = Instance(
            gammas=tuple(raw["gammas"]),
            rewards=tuple(raw["rewards"]),
            outcome_probs=tuple(tuple(row) for row in raw["F"]),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    problems = validate(inst)
    if problems:
        raise InputError(f"{path}: " + "; ".join(problems))
    dist = None
    if "dist" in raw:
        try:
            dist = from_spec(raw["dist"])
        except DistributionError as exc:
            raise InputError(f"{path}: dist: {exc}") from exc
    return inst, dist


def load_dist(path: str) -> TypeDistribution:
    raw = _load_json(path)
    try:
        return from_spec(raw)
    except DistributionError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_contract(path: str) -> MenuContract:
    raw = _load_json(path)
    for key in ("profiles", "assignment"):
        if key not in raw:
            raise InputError(f"{path}: missing key '{key}'")
    try:
        return MenuContract.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _instance_block(inst: Instance) -> dict:
    payload = {
        "gammas": list(inst.gammas),
        "rewards": list(inst.rewards),
        "F": [list(r) for r in inst.outcome_probs],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {**payload, "sha256": digest}


def _tolerances() -> dict:
    return {
        "tie": TIE_TOL,
        "row_sum": ROW_SUM_TOL,
        "mass": MASS_TOL,
        "curvature": CURVATURE_TOL,
        "verdict_relative": VERDICT_TOL,
        "scan_points": SCAN_POINTS,
        "iron_grid": IRON_GRID,
    }


def _report(kind: str, **payload) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "agency", "version": __version__},
        "kind": kind,
        "tolerances": _tolerances(),
        **payload,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need_dist(args, embedded: TypeDistribution | None) -> TypeDistribution:
    if getattr(args, "dist", None):
        return load_dist(args.dist)
    if embedded is not None:
        return embedded
    raise InputError("no distribution: pass --dist or embed a 'dist' key in the instance file")


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    inst, embedded = load_instance(args.instance)
    dist = _need_dist(args, embedded)
    metrics = compute_metrics(inst, dist)
    conds = []
    kappa0 = dist.c_low
    conds.append(slowly_increasing_beta(dist, 0.5, kappa0).to_dict())
    if not dist.has_atoms:
        conds.append(linear_bounded_params(dist, None, kappa0).to_dict())
        conds.append(rhr_bound_alpha_hat(dist).to_dict())
        conds.append(small_tail_eta(inst, dist, dist.quantile(0.5), "virtual").to_dict())
    conds.append(small_tail_eta(inst, dist, dist.quantile(0.5), "cost").to_dict())
    report = _report(
        "analyze",
        instance=_instance_block(inst),
        dist=to_spec(dist),
        metrics=metrics.to_dict(),
        conditions=conds,
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    inst, embedded = load_instance(args.instance)
    dist = _need_dist(args, embedded)
    alphas = np.linspace(0.0, 1.0, args.steps)
    table = list(zip(alphas.tolist(), linear_revenue(inst, dist, alphas).tolist()))
    a_star, rev = best_linear(inst, dist)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["alpha", "revenue"])
        for a, r in table:
            w.writerow([f"{a:.12g}", f"{r:.12g}"])
        w.writerow(["best_alpha", f"{a_star:.12g}"])
        w.writerow(["best_revenue", f"{rev:.12g}"])
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    report = _report(
        "sweep-alpha",
        instance=_instance_block(inst),
        dist=to_spec(dist),
        sweep=[{"alpha": a, "revenue": r} for a, r in table],
        best={"alpha": a_star, "revenue": rev},
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, embedded = load_instance(args.instance)
    dist = _need_dist(args, embedded)
    verdict = verify(
        inst,
        dist,
        args.theorem,
        q=args.q,
        alpha=args.alpha,
        beta=args.beta,
        kappa=args.kappa,
        eta=args.eta,
        epsilon=args.epsilon,
        variant=args.variant,
    )
    report = _report(
        "verify",
        instance=_instance_block(inst),
        dist=to_spec(dist),
        verdict=verdict.to_dict(),
    )
    _emit(report, args.out)
    if not verdict.hypothesis_ok:
        return EXIT_HYPOTHESIS
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _given(args, *names) -> dict:
    """The ``reproduce`` options among ``names`` that the user passed; the
    builder supplies the rest and keeps every value in its ``params``."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _checks_gap(args) -> list[dict]:
    ex = build("gap", **_given(args, "n", "delta"))
    n, delta = ex.params["n"], ex.params["delta"]
    pm = ex.distributions["point_mass"]
    checks = []
    wel_fact = ex.facts["first_best_welfare_at_unit_cost"]
    checks.append(
        {"name": "first_best_welfare_at_unit_cost", "value": wel_fact,
         "expected": n + 1 - delta * n, "passed": abs(wel_fact - (n + 1 - delta * n)) <= 1e-9}
    )
    if ex.instance.rewards[-1] <= 1e12:  # float64 can still resolve R - gamma
        w = welfare(ex.instance, pm)
        checks.append({"name": "welfare_matches_machinery", "value": w,
                       "expected": wel_fact, "passed": abs(w - wel_fact) <= 1e-9})
    a_star, rev = best_linear(ex.instance, pm)
    checks.append({"name": "best_linear_at_most_2", "value": rev, "expected": 2.0,
                   "passed": rev <= 2.0 + 1e-6, "alpha": a_star})
    ratio = wel_fact / max(rev, 1e-12)
    checks.append({"name": "welfare_to_linear_ratio", "value": ratio,
                   "expected": wel_fact / 2.0, "passed": ratio >= wel_fact / 2.0 - 1e-6})
    # at the minimal share the tie-break needs utility rounding
    # (~eps * R_i = eps / delta^i) to stay inside the 1e-9 tie band
    ranks = [i for i in range(2, n + 1) if delta ** i >= 3e-7]
    shares = np.asarray([minimal_linear_alpha(ex, i, 1.0) for i in ranks])
    for i, r_i in zip(ranks, linear_revenue(ex.instance, pm, shares).tolist()):
        checks.append({"name": f"revenue_at_minimal_alpha_{i}", "value": r_i,
                       "expected": 1.0, "passed": abs(r_i - 1.0) <= 1e-6})
    return checks


def _checks_scaling_uniform(args) -> list[dict]:
    ex = build("scaling_uniform", **_given(args, "n", "delta", "c_bar"))
    inst = ex.instance
    dist = ex.distributions["uniform"]
    dies = ex.facts["welfare_dies_at"]
    tail = welfare(inst, dist, (dies, math.inf))
    checks = [{"name": "welfare_above_envelope_end", "value": tail, "expected": 0.0,
               "passed": abs(tail) <= 1e-9}]
    _, rev = best_linear(inst, dist)
    bound = ex.facts["linear_revenue_upper_bound"]
    checks.append({"name": "linear_revenue_upper_bound", "value": rev,
                   "expected": bound, "passed": rev <= bound + 1e-6})
    n = ex.params["n"]
    eps = ex.facts["epsilon"]
    t = [0.0] * (n + 1)
    t[n] = (1.0 + eps / 2.0) * inst.gammas[n]
    single = MenuContract(
        profiles=(PaymentProfile(tuple(t)),),
        breakpoints=(dist.c_high, dist.c_low),
        profile_index=(0,),
    )
    got = menu_revenue(inst, dist, single)
    bound2 = ex.facts["single_contract_revenue_lower_bound"]
    checks.append({"name": "single_contract_beats_linear_bound", "value": got,
                   "expected": bound2, "passed": got >= bound2 - 1e-6})
    return checks


def _checks_non_implementable(args) -> list[dict]:
    ex = build("non_implementable")
    inst = ex.instance
    dist = ex.distributions["piecewise"]
    checks = []
    segs = ((0.0, 1.0, 0.0), (1.0, 4.0, 39.0), (4.0, 10.0, 82.0))
    worst = 0.0
    for lo, hi, off in segs:
        grid = np.linspace(lo + 1e-6, hi - 1e-6, 200)
        phi = np.asarray(dist.virtual_cost(grid))
        worst = max(worst, float(np.max(np.abs(phi - (2.0 * grid + off)))))
    checks.append({"name": "virtual_cost_segments", "value": worst, "expected": 0.0,
                   "passed": worst <= 1e-9})
    rule = virtual_rule(inst, ironed(dist))
    bps = sorted(rule.breakpoints[1:-1])
    err = max(abs(b - e) for b, e in zip(bps, (1.0, 4.0, 9.0)))
    checks.append({"name": "virtual_rule_breakpoints", "value": bps, "expected": [1.0, 4.0, 9.0],
                   "passed": len(bps) == 3 and err <= 1e-6})
    cert = certify_non_implementable_at(inst, rule, 4.0)
    checks.append({"name": "certificate_at_4", "value": cert.to_dict(), "expected": True,
                   "passed": cert.certified})
    return checks


def _checks_menu(args) -> list[dict]:
    ex = build("menu", **_given(args, "n", "r1", "r2", "c_bar"))
    inst = ex.instance
    contract = ex.contract
    checks = [{"name": "menu_size", "value": menu_size(contract),
               "expected": ex.facts["menu_size"],
               "passed": menu_size(contract) == ex.facts["menu_size"]}]
    worst = 0.0
    for i in range(1, ex.params["n"] + 1):
        k = (i + 1) // 2
        T = inst.expected_payments(contract.profiles[k - 1])
        worst = max(worst, abs(float(T[i]) - ex.facts["expected_payments"][i - 1]))
    checks.append({"name": "expected_payments_closed_form", "value": worst, "expected": 0.0,
                   "passed": worst <= 1e-9})
    pieces = menu_induced_pieces(inst, contract)
    induced = sorted(p[1] for p in pieces[:-1])
    claimed = sorted(list(ex.facts["virtual_breakpoints"]) + [ex.facts["action_breakpoint_top"]])
    ok = len(induced) == len(claimed) and all(abs(a - b) <= 1e-6 for a, b in zip(induced, claimed))
    checks.append({"name": "best_responses_reproduce_rule", "value": induced,
                   "expected": claimed, "passed": ok})
    rep = check_menu_ic(inst, contract)
    checks.append({"name": "menu_ic", "value": {"selection_gap": rep.worst_selection_gap,
                                                "dstar": rep.worst_dstar},
                   "expected": 0.0, "passed": rep.passed})
    return checks


def _checks_non_monotone(args) -> list[dict]:
    audit = non_monotone_audit(**_given(args, "delta", "epsilon"))
    return [
        {"name": "revenue_H_exact", "value": audit["revenue_H"], "expected": 0.5,
         "passed": audit["revenue_H"] == 0.5},
        {"name": "revenue_G_below_half", "value": audit["revenue_G_upper"], "expected": 0.5,
         "passed": audit["revenue_G_upper"] < 0.5, "grid_relative": False,
         "lp_status": audit["lp_status"], "best_t": audit["best_t_for_G"]},
    ]


def _checks_smoothed(args) -> list[dict]:
    ex = build("smoothed", **_given(args, "epsilon"))
    verdict = verify(ex.instance, ex.distributions["smoothed"], "smooth", epsilon=ex.params["epsilon"])
    return [{"name": "smooth_guarantee", "value": verdict.to_dict(),
             "expected": ex.facts["welfare_guarantee"], "passed": verdict.passed}]


def cmd_reproduce(args) -> int:
    runners = {
        "gap": _checks_gap,
        "scaling_uniform": _checks_scaling_uniform,
        "non_implementable": _checks_non_implementable,
        "menu": _checks_menu,
        "non_monotone": _checks_non_monotone,
        "smoothed": _checks_smoothed,
    }
    checks = runners[args.example](args)
    report = _report("reproduce", example=args.example, checks=checks,
                     passed=all(c["passed"] for c in checks))
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_check_ic(args) -> int:
    inst, _ = load_instance(args.instance)
    contract = load_contract(args.contract)
    for k, profile in enumerate(contract.profiles):
        if len(profile.payments) != inst.m + 1:
            raise InputError(f"{args.contract}: profiles[{k}] has {len(profile.payments)} payments, "
                             f"expected {inst.m + 1} (one per outcome)")
    rep = check_menu_ic(inst, contract)
    report = _report(
        "check-ic",
        instance=_instance_block(inst),
        contract=contract.to_dict(),
        summary={
            "passed": rep.passed,
            "worst_selection_gap": rep.worst_selection_gap,
            "worst_selection_type": rep.worst_selection_type,
            "worst_dstar": rep.worst_dstar,
            "worst_dstar_anchor": rep.worst_dstar_anchor,
            "checked_types": rep.checked_types,
        },
        grid=list(rep.rows),
    )
    _emit(report, args.out)
    return EXIT_OK if rep.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


@cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="agency",
        description="Analyze principal-agent instances with private cost types.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="metrics and condition reports")
    pa.add_argument("--instance", required=True)
    pa.add_argument("--dist")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep-alpha", help="table of (alpha, revenue)")
    ps.add_argument("--instance", required=True)
    ps.add_argument("--dist")
    ps.add_argument("--steps", type=int, default=101)
    ps.add_argument("--format", choices=("json", "csv"), default="json")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_sweep_alpha)

    pv = sub.add_parser("verify", help="check one approximation theorem")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--dist")
    pv.add_argument("--theorem", required=True)
    pv.add_argument("--q", type=float)
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--beta", type=float)
    pv.add_argument("--kappa", type=float)
    pv.add_argument("--eta", type=float)
    pv.add_argument("--epsilon", type=float)
    pv.add_argument("--variant")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("reproduce", help="rebuild a canonical example and check its facts")
    pr.add_argument("example", choices=sorted(set(EXAMPLE_IDS)))
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--delta", type=float, default=None)
    pr.add_argument("--epsilon", type=float, default=None)
    pr.add_argument("--r1", type=float, default=None)
    pr.add_argument("--r2", type=float, default=None)
    pr.add_argument("--cbar", type=float, default=None, dest="c_bar")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_reproduce)

    pc = sub.add_parser("check-ic", help="curvature summary for a contract file")
    pc.add_argument("--instance", required=True)
    pc.add_argument("--contract", required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_check_ic)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (DistributionError, AtomPresentError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
