import numpy as np
import pytest

from agency import (
    AllocationRule,
    Instance,
    envelope_rule,
    iron,
    linear_payments,
    piecewise,
    rule_from_payments,
    uniform,
    virtual_rule,
)
from agency.allocation import welfare_envelope
from agency.examples import menu

from conftest import battery, random_instance
from oracles import welfare_crossings


def appx_non_implement():
    inst = Instance(
        gammas=(0, 1, 3, 5.5),
        rewards=(0, 100, 300),
        outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.5, 0.5), (0, 0, 1)),
    )
    d = 20.0 / 23.0
    dist = piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)])
    return inst, dist


def grid_argmax(inst, alpha, cs):
    R = inst.expected_reward_array()
    g = inst.gamma_array()
    util = alpha * R[None, :] - g[None, :] * cs[:, None]
    return np.argmax(util, axis=1)


def away_from_breakpoints(cs, rule, tol=1e-9):
    cs = np.asarray(cs)
    keep = np.ones(len(cs), dtype=bool)
    for z in rule.breakpoints:
        keep &= np.abs(cs - z) > tol
    return cs[keep]


class TestEnvelopeRule:
    def test_counterexample_all_top(self):
        inst, _ = appx_non_implement()
        rule = envelope_rule(inst, 1.0, (0, 10))
        assert rule.actions == (3,)
        cs = np.arange(0.0005, 10, 0.001)
        assert np.all(np.asarray(rule.action_at(cs)) == grid_argmax(inst, 1.0, cs))

    def test_menu_example_breakpoints(self):
        # quadratic efforts: interior welfare crossings at dr / (2i + 1)
        n, r1, r2 = 6, 10.0, 25.0
        F = [(1.0, 0.0, 0.0)] + [(0.0, 1 - i / n, i / n) for i in range(1, n + 1)]
        inst = Instance(gammas=tuple(i * i / n for i in range(n + 1)),
                        rewards=(0.0, r1, r2), outcome_probs=tuple(F))
        rule = envelope_rule(inst, 1.0, (0.0, 1e6))
        dr = r2 - r1
        inner = sorted(rule.breakpoints[1:-1])
        expected = sorted([dr / (2 * i + 1) for i in range(1, n)] + [n * r1 + dr])
        assert inner == pytest.approx(expected, rel=1e-12)
        cs = away_from_breakpoints(np.arange(0.01, 50, 0.01), rule)
        assert np.all(np.asarray(rule.action_at(cs)) == grid_argmax(inst, 1.0, cs))

    def test_alpha_zero_is_null(self, rng):
        inst = random_instance(rng)
        rule = envelope_rule(inst, 0.0, (0, 10))
        assert rule.actions == (0,)
        assert rule.action_at(0.0) == 0

    def test_breakpoints_scale_with_alpha(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            full = envelope_rule(inst, 1.0, (0, 1e9))
            alpha = float(rng.uniform(0.2, 0.9))
            scaled = envelope_rule(inst, alpha, (0, 1e9))
            got = sorted(scaled.breakpoints[1:-1])
            expected = sorted(alpha * z for z in full.breakpoints[1:-1])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_rule_matches_argmax_property(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.1, 1.0))
            rule = envelope_rule(inst, alpha, (0, 20))
            cs = away_from_breakpoints(rng.uniform(0, 20, 400), rule)
            assert np.all(np.asarray(rule.action_at(cs)) == grid_argmax(inst, alpha, cs))

    def test_crossings_1e_12_apart_keep_both_breakpoints(self):
        # action 1 wins only on a window 1e-12 wide; an exact envelope keeps it
        inst = Instance(gammas=(0.0, 1.0, 2.0), rewards=(0.0, 1.0, 2.0 - 1e-12),
                        outcome_probs=tuple(tuple(row) for row in np.eye(3)))
        rule = envelope_rule(inst, 1.0, (0.0, 10.0))
        assert rule.actions == (0, 1, 2)
        assert rule.breakpoints == (10.0, 1.0, (2.0 - 1e-12) - 1.0, 0.0)
        assert 0.0 < rule.breakpoints[1] - rule.breakpoints[2] < 2e-12

    def test_welfare_envelope_breakpoints_are_pairwise_crossings(self):
        # every kink of the welfare envelope is a crossing of two welfare
        # lines, and between kinks its action is the pointwise argmax
        insts = [inst for seed in (11, 13) for inst, _ in battery(seed, 8)] + [menu(n=9, r1=20.0).instance]
        for inst in insts:
            rule = welfare_envelope(inst)
            z = np.asarray(rule.breakpoints[1:-1])
            assert z.size and set(z.tolist()) <= set(welfare_crossings(inst))
            mids = np.concatenate([[2.0 * z[0]], 0.5 * (z[1:] + z[:-1]), [0.5 * z[-1]]])
            assert grid_argmax(inst, 1.0, mids).tolist() == list(rule.actions)

    def test_actions_monotone(self, rng):
        inst = random_instance(rng)
        rule = envelope_rule(inst, 0.7, (0, 50))
        cs = np.linspace(0, 50, 500)
        acts = np.asarray(rule.action_at(cs))
        assert np.all(np.diff(acts) <= 0)


class TestVirtualRule:
    def test_counterexample_intervals(self):
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        assert rule.actions == (0, 1, 2, 3)
        assert rule.breakpoints[1:-1] == pytest.approx((9.0, 4.0, 1.0), abs=1e-6)
        assert rule.action_at(0.5) == 3
        assert rule.action_at(2.0) == 2
        assert rule.action_at(4.0) == 2  # breakpoint goes to the higher action
        assert rule.action_at(5.0) == 1
        assert rule.action_at(9.5) == 0

    def test_uniform_halves_welfare_breakpoints(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            hi = 2.0 * max(inst.expected_rewards[i] / inst.gammas[i] for i in range(1, inst.n + 1))
            dist = uniform(0.0, hi)
            vr = virtual_rule(inst, iron(dist))
            wr = envelope_rule(inst, 1.0, (0.0, 2.0 * hi))
            expected = sorted(z / 2 for z in wr.breakpoints[1:-1] if z / 2 < hi)
            got = sorted(vr.breakpoints[1:-1])
            assert got == pytest.approx(expected, abs=1e-7)

    def test_matches_pointwise_virtual_argmax(self, rng):
        inst, dist = appx_non_implement()
        iv = iron(dist)
        rule = virtual_rule(inst, iv)
        cs = np.arange(0.001, 10, 0.003)
        R = inst.expected_reward_array()
        g = inst.gamma_array()
        q = np.asarray(iv.value(cs))
        direct = np.argmax(R[None, :] - g[None, :] * q[:, None], axis=1)
        assert np.mean(np.asarray(rule.action_at(cs)) != direct) < 1e-3


class TestRuleFromPayments:
    def test_zero_payments(self, rng):
        inst = random_instance(rng)
        rule = rule_from_payments(inst, [0.0] * (inst.m + 1), (0, 5))
        assert rule.actions == (0,)

    def test_linear_equals_envelope(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.1, 0.95))
            r1 = rule_from_payments(inst, linear_payments(inst, alpha), (0, 30))
            r2 = envelope_rule(inst, alpha, (0, 30))
            cs = np.linspace(0, 30, 1000)
            assert np.all(np.asarray(r1.action_at(cs)) == np.asarray(r2.action_at(cs)))

    def test_counterexample_crossover(self):
        # consistent payments for action 2 at cost 4 put the 3-to-2 switch at
        # (t2 - t1)/5, at least 3.2
        inst, _ = appx_non_implement()
        rule = rule_from_payments(inst, (0.0, 10.0, 26.0), (1.0, 4.0))
        assert rule.actions == (2, 3)
        assert rule.breakpoints[1] == pytest.approx(16.0 / 5.0, abs=1e-9)
        rule17 = rule_from_payments(inst, (0.0, 9.0, 26.0), (1.0, 4.0))
        assert rule17.breakpoints[1] == pytest.approx(17.0 / 5.0, abs=1e-9)
        assert rule17.breakpoints[1] >= 3.2


class TestRuleContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            AllocationRule(breakpoints=(1.0, 2.0), actions=(0,))  # not decreasing
        with pytest.raises(ValueError):
            AllocationRule(breakpoints=(2.0, 1.0, 0.0), actions=(1, 0))  # actions wrong way

    def test_serialization(self):
        rule = AllocationRule(breakpoints=(2.0, 1.0, 0.0), actions=(0, 1))
        assert rule.to_dict() == {"breakpoints": [2.0, 1.0, 0.0], "actions": [0, 1]}
