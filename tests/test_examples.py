import math

import numpy as np
import pytest

from agency import (
    best_linear,
    best_response,
    check_menu_ic,
    iron,
    linear_payments,
    linear_revenue,
    menu_induced_pieces,
    menu_size,
    verify,
    virtual_rule,
    welfare,
)
from agency.examples import (
    ConstraintError,
    build,
    gap,
    menu,
    minimal_linear_alpha,
    non_implementable,
    non_monotone,
    non_monotone_audit,
    scaling_uniform,
    smoothed,
)

from oracles import grid_best_contract


class TestGap:
    def test_welfare_fact(self):
        ex = gap(n=10, delta=0.01)
        assert ex.facts["first_best_welfare_at_unit_cost"] == pytest.approx(10.9, abs=1e-12)

    def test_ratio_battery(self):
        for n in (3, 5, 10):
            for delta in (0.1, 0.01):
                ex = gap(n=n, delta=delta)
                _, rev = best_linear(ex.instance, ex.distributions["point_mass"])
                assert rev <= 2.0 + 1e-6
                wel = ex.facts["first_best_welfare_at_unit_cost"]
                assert wel / rev >= (n + 1 - delta * n) / 2.0 - 1e-6

    def test_minimal_alpha_closed_forms(self):
        ex = gap(n=5, delta=0.1)
        assert minimal_linear_alpha(ex, 1, 1.0) == pytest.approx(0.81)
        assert minimal_linear_alpha(ex, 3, 1.0) == pytest.approx(0.999)
        assert minimal_linear_alpha(ex, 4, 0.0) == 0.0

    def test_minimal_alpha_against_bisection(self):
        # bisect on the share until the best response reaches the action
        ex = gap(n=4, delta=0.1)
        inst = ex.instance
        c = 1.0
        for i in (1, 2, 3, 4):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if best_response(inst, linear_payments(inst, mid), c).action >= i:
                    hi = mid
                else:
                    lo = mid
            assert minimal_linear_alpha(ex, i, c) == pytest.approx(hi, abs=1e-9)

    def test_spread_distribution_mass(self):
        ex = gap(n=4, delta=0.1)
        spread = ex.distributions["spread"]
        assert spread.cdf(1.0) == pytest.approx(1 - 0.1)
        assert spread.cdf(ex.params["c_bar"]) == pytest.approx(1.0)


class TestScalingUniform:
    def test_welfare_dies_at_envelope_end(self):
        ex = scaling_uniform(n=5, delta=0.1, c_bar=5.0)
        dies = ex.facts["welfare_dies_at"]
        tail = welfare(ex.instance, ex.distributions["uniform"], (dies, math.inf))
        assert tail == pytest.approx(0.0, abs=1e-9)

    def test_linear_revenue_bound(self):
        ex = scaling_uniform(n=5, delta=0.1, c_bar=5.0)
        _, rev = best_linear(ex.instance, ex.distributions["uniform"])
        assert rev <= ex.facts["linear_revenue_upper_bound"] + 1e-6


class TestNonImplementable:
    def test_virtual_segments(self):
        ex = non_implementable()
        dist = ex.distributions["piecewise"]
        for (lo, hi), off in zip(((0, 1), (1, 4), (4, 10)), ex.facts["virtual_cost_offsets"]):
            grid = np.linspace(lo + 1e-9, hi - 1e-9, 300)
            phi = np.asarray(dist.virtual_cost(grid))
            assert np.max(np.abs(phi - (2 * grid + off))) < 1e-9

    def test_rule_breakpoints(self):
        ex = non_implementable()
        rule = virtual_rule(ex.instance, iron(ex.distributions["piecewise"]))
        assert sorted(rule.breakpoints[1:-1]) == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)


class TestNonMonotone:
    def test_constraints(self):
        with pytest.raises(ConstraintError, match="epsilon < delta"):
            non_monotone(delta=0.01, epsilon=0.01)

    def test_revenue_under_point_mass(self):
        ex = non_monotone(0.02, 0.01)
        br = best_response(ex.instance, (0.0, 0.0, 1.0, 0.0), 1.0)
        assert br.action == 2
        assert br.principal_utility == 0.5

    def test_fosd_ordering(self):
        ex = non_monotone(0.02, 0.01)
        G, H = ex.distributions["G"], ex.distributions["H"]
        cs = np.linspace(0, 1, 50)
        assert np.all(np.asarray(G.cdf(cs)) >= np.asarray(H.cdf(cs)) - 1e-12)

    def test_audit_coarse_grid(self):
        # the LP audit is at least as good as any coarse grid, and on this
        # one it finds the same contract
        audit = non_monotone_audit(0.02, 0.01)
        assert audit["revenue_H"] == 0.5
        assert audit["revenue_G_upper"] < 0.5
        assert audit["gap_confirmed"]
        ex = non_monotone(0.02, 0.01)
        revenue, best_t = grid_best_contract(ex.instance, ex.distributions["G"].atoms, (0.0, 2.0), 0.05)
        assert audit["revenue_G_upper"] == revenue and audit["best_t_for_G"] == best_t


class TestMenu:
    def test_constraint_checks(self):
        with pytest.raises(ConstraintError, match="r1"):
            menu(n=8, r1=2.0)
        # odd n needs r1 >= n + 1: below it the last profile pays a negative t1
        for r1 in (2.5, 3.0, 3.99):
            with pytest.raises(ConstraintError, match=r"r1 >= 2k\(2k-1\)/n = 4"):
                menu(n=3, r1=r1)
        assert menu_size(menu(n=3, r1=4.0).contract) == 2
        assert menu_size(menu(n=8, r1=7.0).contract) == 4
        with pytest.raises(ConstraintError, match="r2"):
            menu(n=8, r1=10.0, r2=20.0)

    def test_profiles_and_rule(self):
        ex = menu(n=8)
        assert menu_size(ex.contract) == 4
        pieces = menu_induced_pieces(ex.instance, ex.contract, 600)
        actions = [p[2] for p in pieces]
        assert actions == list(range(8, -1, -1))

    def test_odd_action_count(self):
        ex = menu(n=5, r1=10.0)
        assert menu_size(ex.contract) == 3
        assert check_menu_ic(ex.instance, ex.contract, 400).passed


class TestSmoothed:
    def test_guarantee_passes(self):
        ex = smoothed(epsilon=0.25)
        v = verify(ex.instance, ex.distributions["smoothed"], "smooth", epsilon=0.25)
        assert v.passed
        assert v.guarantee == pytest.approx(ex.facts["welfare_guarantee"])


def test_build_dispatch():
    assert build("gap", n=3, delta=0.1).example_id == "gap"
    with pytest.raises(ValueError, match="unknown example"):
        build("nonexistent")
