"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned in the assertions; the randomized
batteries use seed 42.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from agency import (
    best_linear,
    best_response,
    certify_non_implementable_at,
    check_menu_ic,
    curvature_check,
    envelope_rule,
    expected_payment_identity,
    exponential,
    iron,
    linear_payments,
    linear_revenue,
    linear_revenue_quadrature,
    menu_induced_pieces,
    menu_revenue,
    menu_size,
    smoothed_point_mass,
    truncated_normal,
    uniform,
    verify,
    virtual_rule,
    virtual_welfare,
    virtual_welfare_quadrature,
)
from agency.examples import gap, menu, non_implementable, non_monotone, non_monotone_audit
from agency.incentives import binary_action_optimal

from conftest import battery, random_binary_action_instance, random_instance, welfare_top
from oracles import grid_best_contract, grid_certificate

SEED = 42


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    error: BaseException | None = None
    try:
        yield
    except BaseException as exc:  # report, then re-raise
        error = exc
    elapsed = time.perf_counter() - t0
    ok = error is None and elapsed < budget_s
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {elapsed:7.2f}s  {description}")
    if error is not None:
        raise error
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget"


def test_criterion_01_uniform_virtual_cost():
    with criterion(1, "uniform virtual cost doubles the type", 1.0):
        for c_bar in (1.0, 7.3):
            dist = uniform(0.0, c_bar)
            cs = np.linspace(1e-9, c_bar, 1000)
            phi = np.asarray(dist.virtual_cost(cs))
            assert np.max(np.abs(phi - 2.0 * cs)) <= 1e-12 * max(1.0, 2 * c_bar)


def test_criterion_02_non_implementable_certificate():
    with criterion(2, "virtual maximizer certified non-implementable at c=4", 60.0):
        ex = non_implementable()
        dist = ex.distributions["piecewise"]
        for (lo, hi), off in zip(((0, 1), (1, 4), (4, 10)), (0.0, 39.0, 82.0)):
            grid = np.linspace(lo + 1e-9, hi - 1e-9, 300)
            assert np.max(np.abs(np.asarray(dist.virtual_cost(grid)) - (2 * grid + off))) <= 1e-9
        rule = virtual_rule(ex.instance, iron(dist))
        assert sorted(rule.breakpoints[1:-1]) == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)
        cert = certify_non_implementable_at(ex.instance, rule, 4.0)
        oracle = grid_certificate(ex.instance, rule, 4.0)  # the grid's default box and step
        assert oracle.box == (0.0, 4.0 * 300.0) and oracle.step == pytest.approx(0.5)
        assert oracle.certified and oracle.consistent_profiles > 0
        assert cert.certified == oracle.certified and cert.min_dstar == oracle.min_dstar
        assert cert.lp_status == "optimal" and cert.to_dict()["grid_relative"] is False


def test_criterion_03_gap_ratio():
    with criterion(3, "geometric gap: linear earns at most 2, welfare 10.9", 5.0):
        ex = gap(n=10, delta=0.01)
        wel = ex.facts["first_best_welfare_at_unit_cost"]
        assert wel == pytest.approx(10.9, abs=1e-9)
        _, rev = best_linear(ex.instance, ex.distributions["point_mass"])
        assert rev <= 2.0 + 1e-6
        assert wel / rev >= 5.4499


def test_criterion_04_uniform_revenue_optimality():
    with criterion(4, "uniform types: the half share collects the virtual welfare", 10.0):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            inst = random_instance(rng)
            c_bar = float(rng.uniform(0.55, 1.5)) * welfare_top(inst)
            dist = uniform(0.0, c_bar)
            iv = iron(dist)
            top = best_response(inst, inst.rewards, float(iv.value(c_bar))).action
            assert top == 0  # construction guarantees the hypothesis
            rev = linear_revenue(inst, dist, 0.5)
            vwel = virtual_welfare(inst, dist, iv=iv)
            assert rev >= vwel - 1e-6 * vwel


def test_criterion_05_closed_forms_vs_quadrature():
    with criterion(5, "breakpoint sums match quadrature on 50 random pairs", 30.0):
        rng = np.random.default_rng(SEED)
        for inst, dist in battery(SEED, 50):
            alpha = float(rng.uniform(0.1, 0.9))
            lr = linear_revenue(inst, dist, alpha)
            lrq = linear_revenue_quadrature(inst, dist, alpha)
            assert lr == pytest.approx(lrq, rel=1e-6, abs=1e-9)
            vw = virtual_welfare(inst, dist)
            vwq = virtual_welfare_quadrature(inst, dist)
            assert vw == pytest.approx(vwq, rel=1e-6, abs=1e-9)


def test_criterion_06_theorem_battery():
    with criterion(6, "every guarantee holds across the 50-pair battery", 120.0):
        pairs = battery(SEED, 50)
        for inst, dist in pairs:
            for theorem in ("slow", "universal", "lin_bounded_1", "lin_bounded_2", "upper_n"):
                v = verify(inst, dist, theorem)
                assert v.hypothesis_ok, (theorem, v.notes)
                assert v.passed, (theorem, v.ratio, v.guarantee)
        for inst, _ in pairs[:25]:
            for eps in (0.1, 0.5):
                v = verify(inst, smoothed_point_mass(eps), "smooth", epsilon=eps)
                assert v.hypothesis_ok and v.passed, (v.notes, v.ratio, v.guarantee)
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            inst = random_instance(rng)
            z = welfare_top(inst)
            expo_dist = exponential(8.0 / z)
            expo = verify(inst, expo_dist, "rev_implications", variant="exponential")
            assert expo.hypothesis_ok and expo.passed and expo.guarantee == pytest.approx(2.0)
            wel_v = verify(inst, expo_dist, "wel_implications")
            assert wel_v.hypothesis_ok and wel_v.passed and wel_v.guarantee == pytest.approx(4.0)
            mu = 0.25 * z
            tn = verify(inst, truncated_normal(mu, 2.0 * mu, 0.0),
                        "rev_implications", variant="truncated_normal")
            assert tn.hypothesis_ok and tn.passed and tn.guarantee == pytest.approx(3.0)


def test_criterion_07_menu_example():
    with criterion(7, "eight-action menu: four profiles reproduce the rule", 5.0):
        ex = menu(n=8)
        inst = ex.instance
        assert menu_size(ex.contract) == 4
        n, r1 = 8, ex.params["r1"]
        dr = ex.params["r2"] - r1
        for i in range(1, n + 1):
            k = (i + 1) // 2
            T = inst.expected_payments(ex.contract.profiles[k - 1])
            expect = r1 / 2 + i * dr / (2 * n) + i * i / (2 * n)
            assert float(T[i]) == pytest.approx(expect, abs=1e-9)
        pieces = menu_induced_pieces(inst, ex.contract, 1000)
        induced = sorted(p[1] for p in pieces[:-1])
        claimed = sorted(list(ex.facts["virtual_breakpoints"]) + [ex.facts["action_breakpoint_top"]])
        assert len(induced) == len(claimed)
        assert induced == pytest.approx(claimed, abs=1e-6)


def test_criterion_08_non_monotone_audit():
    with criterion(8, "stochastically better agents can pay the principal less", 600.0):
        audit = non_monotone_audit(0.02, 0.01)
        assert audit["revenue_H"] == 0.5
        assert audit["revenue_G_upper"] < 0.5
        assert audit["grid_relative"] is False and audit["lp_status"] == "optimal"
        ex = non_monotone(0.02, 0.01)
        revenue, best_t = grid_best_contract(ex.instance, ex.distributions["G"].atoms, (0.0, 2.0), 0.01)
        assert (audit["revenue_G_upper"], audit["best_t_for_G"]) == (revenue, best_t)


def test_criterion_09_ic_property_suite():
    with criterion(9, "linear contracts satisfy the curvature check everywhere", 30.0):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            inst = random_instance(rng)
            hi = 1.3 * welfare_top(inst)
            types = np.linspace(0.0, hi, 1000)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                rule = envelope_rule(inst, alpha, (0.0, hi))
                t = linear_payments(inst, alpha)
                for c in types:
                    chk = curvature_check(inst, rule, float(c), t)
                    assert chk.passed and chk.consistent
            # payment-identity utilities are convex and non-increasing
            rule = envelope_rule(inst, 1.0, (0.0, hi))
            g = inst.gamma_array()[np.asarray(rule.action_at(types))]
            pay = np.asarray([expected_payment_identity(rule, inst, float(c)) for c in types])
            u = pay - g * types
            assert np.all(np.diff(u) <= 1e-9 * max(1.0, np.abs(u).max()))
            assert np.all(np.diff(np.diff(u)) >= -1e-8 * max(1.0, np.abs(u).max()))


def test_criterion_10_binary_action_construction():
    with criterion(10, "two-action optimum: grid-IC and revenue equals virtual welfare", 30.0):
        rng = np.random.default_rng(SEED)
        dist = uniform(0.0, 1.0)
        for _ in range(10):
            inst = random_binary_action_instance(rng)
            contract = binary_action_optimal(inst, dist, grid_points=1000)
            rep = check_menu_ic(inst, contract, 1000)
            assert rep.passed
            rev = menu_revenue(inst, dist, contract)
            vwel = virtual_welfare(inst, dist)
            assert rev == pytest.approx(vwel, rel=1e-6, abs=1e-9)
