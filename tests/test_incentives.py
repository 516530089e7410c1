from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agency import (
    AssumptionViolatedError,
    Instance,
    MenuContract,
    PaymentProfile,
    PreconditionError,
    TypeDistribution,
    best_contract,
    best_response,
    binary_action_optimal,
    binary_outcome_transform,
    certify_non_implementable_at,
    check_menu_ic,
    curvature_check,
    envelope_rule,
    expected_payment_identity,
    iron,
    linear_menu,
    linear_payments,
    linear_revenue,
    menu_revenue,
    menu_size,
    piecewise,
    uniform,
    virtual_rule,
    virtual_welfare,
    welfare,
)
from agency import incentives
from agency.allocation import AllocationRule, _crossings
from agency.incentives import menu_induced_pieces, menu_selection
from agency.examples import menu as menu_example
from agency.examples import non_implementable
from agency.metrics import integrate_against

from conftest import random_binary_action_instance, random_instance, welfare_top
from oracles import grid_best_contract, grid_certificate, grid_menu_ic, highs_linprog


def appx_non_implement():
    inst = Instance(
        gammas=(0, 1, 3, 5.5),
        rewards=(0, 100, 300),
        outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.5, 0.5), (0, 0, 1)),
    )
    d = 20.0 / 23.0
    dist = piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)])
    return inst, dist


class TestPaymentIdentity:
    def test_null_rule_is_free(self):
        rule = AllocationRule(breakpoints=(5.0, 0.0), actions=(0,))
        inst = random_instance(np.random.default_rng(0))
        for c in (0.0, 2.5, 5.0):
            assert expected_payment_identity(rule, inst, c) == 0.0

    def test_menu_example_closed_form(self):
        ex = menu_example(n=8)
        inst = ex.instance
        rule = AllocationRule(
            breakpoints=ex.contract.breakpoints, actions=tuple(range(9))
        )
        z = rule.breakpoints
        for i in range(1, 9):
            c_mid = 0.5 * (z[i + 1] + z[i])  # inside action i's interval
            got = expected_payment_identity(rule, inst, c_mid)
            r1, dr, n = 10.0, ex.params["r2"] - 10.0, 8
            expect = r1 / 2 + i * dr / (2 * n) + i * i / (2 * n)
            assert got == pytest.approx(expect, abs=1e-9)

    def test_two_interval_rule_matches_quadrature(self, rng):
        inst = random_instance(rng, n=3)
        rule = AllocationRule(breakpoints=(6.0, 2.0, 0.0), actions=(1, 3))
        u_bar = 0.7
        for c in (0.5, 2.0, 4.4):
            a = rule.action_at(c)
            integral = 0.0
            for lo, hi in ((c, 2.0), (max(c, 2.0), 6.0)):
                if hi <= lo:
                    continue
                z = np.linspace(lo, hi, 200_001)
                g = inst.gamma_array()[np.asarray(rule.action_at(0.5 * (z[1:] + z[:-1])))]
                integral += float(np.sum(g * np.diff(z)))
            expect = inst.gammas[a] * c + integral + u_bar
            assert expected_payment_identity(rule, inst, c, u_bar) == pytest.approx(expect, abs=1e-6)

    def test_agent_utility_convex_non_increasing(self, rng):
        # u(c) = integral of remaining effort: convex, decreasing, 0 at top
        inst = random_instance(rng)
        rule = envelope_rule(inst, 1.0, (0.0, 20.0))
        cs = np.linspace(0, 20, 801)
        a = np.asarray(rule.action_at(cs))
        u = np.asarray(
            [expected_payment_identity(rule, inst, float(c), 0.0) for c in cs]
        ) - inst.gamma_array()[a] * cs
        assert u[-1] == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(u) <= 1e-9)
        assert np.all(np.diff(np.diff(u)) >= -1e-8)


class TestCurvature:
    def test_linear_contracts_pass_everywhere(self, rng):
        for _ in range(4):
            inst = random_instance(rng)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                rule = envelope_rule(inst, alpha, (0.0, 15.0))
                t = linear_payments(inst, alpha)
                for c in rng.uniform(0, 15, 20):
                    chk = curvature_check(inst, rule, float(c), t)
                    assert chk.passed and chk.consistent

    def test_counterexample_violation(self):
        # consistent payments at the anchor force an upward deviation kink
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        chk = curvature_check(inst, rule, 4.0, (0.0, 10.0, 26.0))
        assert chk.consistent
        assert not chk.passed
        assert chk.dstar == pytest.approx(2.5 * (3.2 - 1.0), abs=1e-9)

    def test_identity_payment_passes_locally(self):
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        pay = expected_payment_identity(rule, inst, 0.5)
        chk = curvature_check(inst, rule, 0.5, (0.0, 0.0, pay))
        assert chk.consistent and chk.passed

    def test_crossings_match_pairwise_loop(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 12))
            g = rng.choice([0.0, 0.5, 1.0, 1.7, 2.5], k)  # repeated slopes never cross
            T = rng.uniform(0.0, 10.0, k)
            want = [(T[i] - T[j]) / (g[i] - g[j]) for i, j in combinations(range(k), 2) if g[i] != g[j]]
            got = _crossings(T, g, 0.5, 6.0)
            assert got.tobytes() == np.asarray([x for x in want if 0.5 < x < 6.0], dtype=float).tobytes()


class TestCertificate:
    def test_counterexample_certified(self):
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        cert = certify_non_implementable_at(inst, rule, 4.0)
        assert cert.certified and cert.lp_status == "optimal"
        assert cert.min_dstar > 1e-9 and cert.witness is None
        oracle = grid_certificate(inst, rule, 4.0, payment_box=(0.0, 400.0), step=0.5)
        assert oracle.certified and oracle.consistent_profiles > 0
        assert cert.min_dstar <= oracle.min_dstar + 1e-9

    def test_implementable_rule_not_certified(self):
        inst = Instance(
            gammas=(0.0, 0.5, 1.2),
            rewards=(0.0, 2.0, 6.0),
            outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.25, 0.75)),
        )
        rule = envelope_rule(inst, 0.5, (0.0, 6.0))
        anchor = 0.5 * (rule.breakpoints[-1] + rule.breakpoints[-2])  # inside the top action
        assert rule.action_at(anchor) == inst.n
        cert = certify_non_implementable_at(inst, rule, float(anchor))
        assert not cert.certified
        assert cert.witness is not None
        chk = curvature_check(inst, rule, float(anchor), cert.witness)
        assert chk.passed and chk.consistent

    def test_local_implementability_at_low_anchor(self):
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        cert = certify_non_implementable_at(inst, rule, 0.5)
        assert not cert.certified
        assert cert.witness is not None
        t = cert.witness
        chk = curvature_check(inst, rule, 0.5, t)
        assert chk.passed and chk.consistent

    def test_matches_scalar_check_on_samples(self, rng):
        # the LP takes the least D* over every consistent t >= 0, so no
        # sampled consistent profile can do better
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        cert = certify_non_implementable_at(inst, rule, 4.0)
        consistent = 0
        for _ in range(400):
            t = (float(rng.uniform(0, 30)), float(rng.uniform(0, 60)), float(rng.uniform(0, 60)))
            chk = curvature_check(inst, rule, 4.0, t)
            if chk.consistent:
                consistent += 1
                assert chk.dstar >= cert.min_dstar - 1e-9
        assert consistent > 0

    def test_anchor_sweep_matches_grid(self):
        # the LP value is D* of an exact optimum, and equals the grid's least
        # D* at every anchor; only anchors 2 and 4 are certified
        ex = non_implementable()
        rule = virtual_rule(ex.instance, iron(ex.distributions["piecewise"]))
        for anchor, dstar in ((0.5, 0.0), (2.0, 3.0), (4.0, 5.5), (6.0, 0.0), (9.5, 0.0)):
            cert = certify_non_implementable_at(ex.instance, rule, anchor)
            oracle = grid_certificate(ex.instance, rule, anchor, step=2.0)
            assert cert.min_dstar == pytest.approx(dstar, abs=1e-12) == oracle.min_dstar
            assert cert.certified == oracle.certified == (dstar > 0)
            assert cert.lp_status == "optimal"
            report = cert.to_dict()
            assert report["grid_relative"] is False and len(report["dual"]) == 2 * (ex.instance.n + 1)

    @staticmethod
    def _nudged_certificate(monkeypatch, scale):
        """The certificate at c = 4 with the largest dual entry scaled."""
        inst, dist = appx_non_implement()
        rule = virtual_rule(inst, iron(dist))
        solve = incentives._linprog

        def nudged(*args):
            x, marginals, status = solve(*args)
            marginals[int(np.argmin(marginals))] *= scale
            return x, marginals, status

        monkeypatch.setattr(incentives, "_linprog", nudged)
        cert = certify_non_implementable_at(inst, rule, 4.0)
        assert cert.min_dstar == pytest.approx(5.5)
        return cert

    def test_infeasible_dual_never_certifies(self, monkeypatch):
        # drop the largest dual entry: on the remaining support sum(y) = 0, so
        # no exact dual exists there
        cert = self._nudged_certificate(monkeypatch, 0.0)
        assert not cert.certified and cert.lp_status == "dual_not_exact"

    def test_scaled_dual_solved_again_on_its_support(self, monkeypatch):
        # scaled by 1.001 the solver's dual has A^T (y + z) < 0 and fails the
        # exact recheck as it stands; solved again on its support, it passes
        cert = self._nudged_certificate(monkeypatch, 1.001)
        assert cert.certified and cert.lp_status == "optimal"

    def test_dirichlet_rows_certified(self):
        # outcome rows drawn from a Dirichlet do not sum to one in binary, so
        # the solver's dual misses A^T (y + z) >= 0 by rounding; every anchor
        # with a positive D* must still be certified
        rng = np.random.default_rng(7)
        positive = 0
        for _ in range(150):
            inst, rule, anchor = _dirichlet_anchor(rng)
            cert = certify_non_implementable_at(inst, rule, anchor)
            if cert.min_dstar is not None and cert.min_dstar > cert.tolerance:
                positive += 1
                assert any(sum(map(Fraction, row)) != 1 for row in inst.outcome_probs)
                assert cert.certified and cert.lp_status == "optimal"
        assert positive == 20


def _dirichlet_anchor(rng: np.random.Generator) -> tuple[Instance, AllocationRule, float]:
    """Four or five actions whose outcome rows are drawn from a Dirichlet, a
    one-action rule on ``(0, top]`` and an anchor inside it."""
    k = int(rng.integers(4, 6))
    rows = [(1.0, 0.0, 0.0)] + [tuple(rng.dirichlet(np.ones(3))) for _ in range(k - 1)]
    inst = Instance(gammas=(0.0, *np.cumsum(rng.uniform(0.2, 2.0, k - 1))),
                    rewards=(0.0, *np.sort(rng.uniform(1, 10, 2))), outcome_probs=tuple(rows))
    top = float(rng.uniform(2, 10))
    rule = AllocationRule(breakpoints=(top, 0.0), actions=(int(rng.integers(1, k - 1)),))
    return inst, rule, top * float(rng.uniform(0.05, 0.95))


def _small_instance(rng: np.random.Generator) -> Instance:
    """Three or four actions on two paying outcomes. Probabilities, efforts
    and rewards are dyadic, so rows sum to one exactly and the LP duals have
    exact rational values for the recheck to find."""
    k = int(rng.integers(3, 5))
    p = np.sort(rng.choice(9, k - 1, replace=False)) / 8.0
    rows = [(1.0, 0.0, 0.0)] + [(0.0, 1.0 - q, q) for q in p]
    gammas = np.concatenate([[0.0], np.cumsum(rng.integers(1, 9, k - 1) / 4.0)])
    rewards = (0.0, *np.sort(rng.integers(1, 11, 2)).astype(float))
    return Instance(gammas=tuple(gammas), rewards=rewards, outcome_probs=tuple(rows))


def _dyadic_anchor(rng: np.random.Generator) -> tuple[Instance, AllocationRule, float]:
    """A :func:`_small_instance`, a rule on quarter-step breakpoints over some
    of its actions, and an anchor at an eighth of one of the rule's intervals."""
    inst = _small_instance(rng)
    top = int(rng.integers(8, 41))  # in quarters
    actions = tuple(sorted(rng.choice(inst.n + 1, int(rng.integers(1, inst.n + 2)), replace=False)))
    cuts = tuple(np.sort(rng.choice(np.arange(1, top), len(actions) - 1, replace=False))[::-1] / 4.0)
    rule = AllocationRule(breakpoints=(top / 4.0, *cuts, 0.0), actions=actions)
    k = int(rng.integers(len(actions)))
    lo, hi = rule.breakpoints[k + 1], rule.breakpoints[k]
    return inst, rule, lo + (hi - lo) * int(rng.integers(1, 8)) / 8.0


def _two_atoms(rng: np.random.Generator) -> TypeDistribution:
    mass = float(rng.uniform(0.05, 0.95))
    return TypeDistribution(parts=(), atoms=tuple(sorted(zip(rng.uniform(0.0, 3.0, 2), (mass, 1.0 - mass)))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_lp_certificate_against_grid(seed):
    inst, rule, anchor = _dyadic_anchor(np.random.default_rng(seed))
    cert = certify_non_implementable_at(inst, rule, anchor)
    oracle = grid_certificate(inst, rule, anchor, step=max(inst.rewards) / 60.0)
    if oracle.min_dstar is not None:
        assert cert.min_dstar is not None and cert.min_dstar <= oracle.min_dstar + 1e-9
    if cert.certified:
        assert oracle.certified or oracle.consistent_profiles == 0
    if cert.witness is not None:
        assert curvature_check(inst, rule, anchor, cert.witness).passed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_lp_best_contract_against_grid(seed):
    rng = np.random.default_rng(seed)
    inst = _small_instance(rng)
    dist = _two_atoms(rng)
    revenue, t, status = best_contract(inst, dist)
    oracle, _ = grid_best_contract(inst, dist.atoms, (0.0, 2.0 * max(inst.rewards)), max(inst.rewards) / 50.0)
    assert status == "optimal"
    assert revenue >= oracle - 1e-9
    # the reported revenue is t's own, each atom answering by the tie order
    assert revenue == pytest.approx(sum(p * best_response(inst, t, c).principal_utility for c, p in dist.atoms),
                                    abs=1e-12)


def _highs(cost, A_ub, b_ub, free=0):
    """:func:`incentives._linprog`'s interface on HiGHS."""
    res, status = highs_linprog(cost, A_ub, b_ub, [(0.0, None)] * (len(cost) - free) + [(None, None)] * free)
    return (res.x, res.ineqlin.marginals, status) if res.status == 0 else (None, None, status)


def _on_both_solvers(monkeypatch, fn, *args):
    """``fn(*args)`` on the package's simplex, then on HiGHS."""
    ours = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(incentives, "_linprog", _highs)
        return ours, fn(*args)


def test_certificates_match_highs(monkeypatch):
    # the simplex only finds the active set that the exact recheck certifies,
    # so on both generators' anchors it must decide as HiGHS does; degenerate
    # optima may report another dual vector
    rng = np.random.default_rng(15)
    decided = Counter()
    for case in [_dyadic_anchor] * 1000 + [_dirichlet_anchor] * 1000:
        ours, highs = _on_both_solvers(monkeypatch, certify_non_implementable_at, *case(rng))
        assert (ours.lp_status, ours.certified) == (highs.lp_status, highs.certified)
        assert (ours.min_dstar is None) == (highs.min_dstar is None)
        if ours.min_dstar is not None:
            assert ours.min_dstar == pytest.approx(highs.min_dstar, abs=1e-9)
        decided[ours.lp_status, ours.certified] += 1
    assert decided == {("optimal", True): 163, ("optimal", False): 1646, ("infeasible", False): 191}


def test_best_contracts_match_highs(monkeypatch):
    rng = np.random.default_rng(15)
    for _ in range(300):
        (revenue, _, status), (oracle, _, oracle_status) = _on_both_solvers(
            monkeypatch, best_contract, _small_instance(rng), _two_atoms(rng))
        assert status == oracle_status == "optimal"
        assert revenue == pytest.approx(oracle, abs=1e-9)


def test_lp_statuses_match_highs():
    # 6 rows, 4 columns, the last one free: half with b >= 0, so x = 0 is
    # feasible and only optimal or unbounded can come back, half with a
    # normal b; HiGHS's presolve calls 6 of these unbounded LPs infeasible
    rng = np.random.default_rng(16)
    decided = Counter()
    for k in range(2000):
        A, cost = rng.normal(size=(6, 4)), rng.normal(size=4)
        b = rng.uniform(0.0, 1.0, 6) if k % 2 == 0 else rng.normal(size=6)
        x, _, status = incentives._linprog(cost, A, b, 1)
        res, oracle = highs_linprog(cost, A, b, [(0.0, None)] * 3 + [(None, None)])
        assert status == oracle, k
        if status == "optimal":
            assert cost @ x == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
        decided[k % 2, status] += 1
    assert decided == {(0, "optimal"): 750, (0, "unbounded"): 250,
                       (1, "optimal"): 228, (1, "unbounded"): 286, (1, "infeasible"): 486}


class TestSimplex:
    """The LP kernel behind the certificate and the audit, on hand-solved LPs."""

    def test_beale_cycling_example_reaches_the_optimum(self):
        # Beale (1955): the largest-coefficient rule with lowest-index ties
        # cycles here; Bland's rule must not
        cost = np.array([-0.75, 20.0, -0.5, 6.0])
        A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        x, marginals, status = incentives._linprog(cost, A, np.array([0.0, 0.0, 1.0]))
        assert status == "optimal"
        assert x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12) and cost @ x == pytest.approx(-1.25, abs=1e-12)
        assert marginals == pytest.approx([0.0, -1.5, -1.25], abs=1e-12)

    def test_infeasible(self):
        # x1 <= 1 and x1 >= 2
        x, marginals, status = incentives._linprog(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                                   np.array([1.0, -2.0]))
        assert status == "infeasible" and x is None and marginals is None

    def test_unbounded(self):
        x, _, status = incentives._linprog(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
        assert status == "unbounded" and x is None

    def test_free_variable_goes_negative(self):
        # min s over s >= -t - 2 and s >= 2t - 8: t = 2, s = -4, duals -2/3 and -1/3
        x, marginals, status = incentives._linprog(np.array([0.0, 1.0]), np.array([[-1.0, -1.0], [2.0, -1.0]]),
                                                   np.array([2.0, 8.0]), 1)
        assert status == "optimal"
        assert x == pytest.approx([2.0, -4.0], abs=1e-12)
        assert marginals == pytest.approx([-2.0 / 3.0, -1.0 / 3.0], abs=1e-12)

    def test_degenerate_ratio_tie_leaves_the_lowest_index(self):
        # x1 enters with the ratios 1/1 and 2/2 tied: the first row's slack
        # leaves, so the second row's stays basic at zero and its dual is zero
        x, marginals, status = incentives._linprog(np.array([-1.0, 0.0]), np.array([[1.0, 0.0], [2.0, 0.0]]),
                                                   np.array([1.0, 2.0]))
        assert status == "optimal"
        assert x.tolist() == [1.0, 0.0] and marginals.tolist() == [-1.0, 0.0]

    def test_certificate_lp(self, monkeypatch):
        # non_implementable at c = 4: t* = (0, 4, 20) is the optimal face's one
        # vertex, D* = 5.5, and rows 3 (A t - s <= b) and 1 (A t <= d) prove it
        ex = non_implementable()
        rule = virtual_rule(ex.instance, iron(ex.distributions["piecewise"]))
        calls = []
        solve = incentives._linprog

        def spy(*args):
            calls.append(solve(*args))
            return calls[-1]

        monkeypatch.setattr(incentives, "_linprog", spy)
        certify_non_implementable_at(ex.instance, rule, 4.0)
        (x, marginals, status), = calls
        assert status == "optimal"
        assert x == pytest.approx([0.0, 4.0, 20.0, 5.5], abs=1e-12)
        assert marginals == pytest.approx([0, 0, 0, -1, 0, -1, 0, 0], abs=1e-12)

    def test_best_contract_lp(self):
        # two atoms at c = 1 and 2 both take action 1, which needs t1 - t0 >= 2c:
        # the cheapest t is (0, 4), and only the c = 2 row binds, with dual -1
        inst = Instance(gammas=(0.0, 1.0), rewards=(0.0, 4.0), outcome_probs=((1.0, 0.0), (0.5, 0.5)))
        rows = [incentives._best_response_rows(inst, 1, c) for c in (1.0, 2.0)]
        x, marginals, status = incentives._linprog(inst.prob_matrix()[1], np.concatenate([A for A, _ in rows]),
                                                   np.concatenate([d for _, d in rows]))
        assert status == "optimal"
        assert x.tolist() == [0.0, 4.0] and marginals.tolist() == [0.0, 0.0, -1.0, 0.0]


class TestMenus:
    def test_menu_size_dedupe(self):
        p = PaymentProfile((0.0, 1.0))
        q = PaymentProfile((0.0, 1.0 + 1e-12))
        m = MenuContract(profiles=(p, q), breakpoints=(2.0, 1.0, 0.0), profile_index=(0, 1))
        assert menu_size(m) == 1

    def test_linear_menu_size(self, rng):
        inst = random_instance(rng)
        assert menu_size(linear_menu(inst, 0.4, (0.0, 5.0))) == 1

    def test_menu_example_is_ic(self):
        ex = menu_example(n=8)
        rep = check_menu_ic(ex.instance, ex.contract)
        assert rep.passed

    @staticmethod
    def _pairwise_selection(inst, contract, c, tol=1e-9):
        # a running best over (agent utility, principal utility, action,
        # profile), agent utilities compared within tol
        g, R = inst.gamma_array(), inst.expected_reward_array()
        best = None
        for pidx, p in enumerate(contract.profiles):
            T = inst.expected_payments(p)
            for a in range(len(T)):
                key = (float(T[a] - g[a] * c), float(R[a] - T[a]), a, pidx)
                if best is None or key[0] > best[0] + tol or (key[0] >= best[0] - tol and key[1:] > best[1:]):
                    best = key
        return best[3], best[2]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_selection_matches_pairwise_loop(self, n):
        ex = menu_example(n=n, r1=n + 1.0)
        lo, hi = ex.contract.support
        grid = np.unique(np.concatenate([np.linspace(lo, hi, 300), ex.contract.breakpoints]))
        for c in grid:
            assert menu_selection(ex.instance, ex.contract, float(c)) == \
                self._pairwise_selection(ex.instance, ex.contract, float(c))

    def test_selection_full_tie_takes_higher_profile(self):
        inst, _ = appx_non_implement()
        p = PaymentProfile((0.0, 50.0, 150.0))
        m = MenuContract(profiles=(p, p), breakpoints=(80.0, 0.0), profile_index=(0,))
        assert menu_selection(inst, m, 10.0) == (1, 3)

    def test_menu_revenue_matches_quadrature(self, rng):
        inst = random_instance(rng, n=2, m=2)
        dist = uniform(0.0, 6.0)
        alpha = 0.45
        m = linear_menu(inst, alpha, (0.0, 6.0))
        got = menu_revenue(inst, dist, m)
        assert got == pytest.approx(linear_revenue(inst, dist, alpha), rel=1e-9)

    def test_expected_revenue_identity(self, rng):
        # quadrature of R - T equals quadrature of R - gamma * virtual cost
        # minus the top type's utility, for identity-built payments
        inst = random_instance(rng, n=3)
        dist = uniform(0.0, 8.0)
        rule = envelope_rule(inst, 0.6, (0.0, 8.0))
        u_bar = 0.3
        R = inst.expected_reward_array()
        g = inst.gamma_array()

        def lhs(c):
            a = np.asarray(rule.action_at(c))
            pay = np.asarray([expected_payment_identity(rule, inst, float(x), u_bar) for x in np.atleast_1d(c)])
            return R[a] - pay

        def rhs(c):
            a = np.asarray(rule.action_at(c))
            phi = np.asarray(dist.virtual_cost(np.atleast_1d(c)))
            return R[a] - g[a] * phi

        left = integrate_against(dist, lhs, 0.0, 8.0, extra_breaks=rule.breakpoints)
        right = integrate_against(dist, rhs, 0.0, 8.0, extra_breaks=rule.breakpoints) - u_bar
        assert left == pytest.approx(right, rel=1e-6)


def _narrow_window_menu():
    """Two profiles on [0, 10]: the unused one beats the assigned one by
    1e-5 around c = 3.14159, on a window 4e-5 wide that falls between the
    points of a 1,000-type grid."""
    inst = Instance(
        gammas=(0.0, 1.0, 1.5, 2.0),
        rewards=(0.0, 1.0, 2.0, 3.0),
        outcome_probs=tuple(tuple(row) for row in np.eye(4)),
    )
    c, t1 = 3.14159, 10.0
    t3 = t1 + c  # actions 1 and 3 tie at c under the assigned profile
    t2 = t1 - c + 1e-5 + 1.5 * c  # action 2 pays 1e-5 more utility there
    m = MenuContract(
        profiles=(PaymentProfile((0.0, t1, 0.0, t3)), PaymentProfile((0.0, 0.0, t2, 0.0))),
        breakpoints=(10.0, 0.0),
        profile_index=(0,),
    )
    return inst, m


def _random_menu(rng: np.random.Generator) -> tuple[Instance, MenuContract]:
    """Random payments on random assignment intervals: mostly not IC."""
    inst = random_instance(rng)
    hi = 1.3 * welfare_top(inst)
    k = int(rng.integers(1, 4))
    profiles = tuple(PaymentProfile(tuple(rng.uniform(0.0, max(inst.rewards), inst.m + 1))) for _ in range(k))
    cuts = int(rng.integers(0, 4))
    z = (hi, *np.sort(rng.uniform(0.0, hi, cuts))[::-1].tolist(), 0.0)
    return inst, MenuContract(profiles, z, tuple(int(i) for i in rng.integers(0, k, cuts + 1)))


def _menu_cases():
    for n in range(2, 10):
        for r1 in (n + 1.0, 2.0 * n + 2.0, 20.0 + n):
            ex = menu_example(n=n, r1=r1)
            yield ex.instance, ex.contract
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_binary_action_instance(rng)
        yield inst, binary_action_optimal(inst, uniform(0.0, 1.0))


class TestExactMenuIc:
    def test_narrow_window_menu_fails(self):
        inst, m = _narrow_window_menu()
        assert grid_menu_ic(inst, m).passed  # the window lies between grid types
        rep = check_menu_ic(inst, m)
        assert not rep.passed
        assert rep.worst_selection_gap == pytest.approx(1e-5, rel=1e-6)
        assert rep.worst_selection_type == pytest.approx(3.14159, abs=1e-12)

    @staticmethod
    def _assert_dominates_grid(inst, m):
        exact, grid = check_menu_ic(inst, m), grid_menu_ic(inst, m)
        assert exact.worst_selection_gap >= grid.worst_selection_gap - 1e-12
        assert exact.worst_dstar >= grid.worst_dstar - 1e-12
        assert grid.passed or not exact.passed
        rows = incentives.menu_curvature_rows(inst, m)
        assert len(rows) == exact.checked_types
        assert max(r["dstar"] for r in rows) == exact.worst_dstar
        return exact

    def test_ic_menus_pass_and_dominate_grid(self):
        for inst, m in _menu_cases():
            rep = self._assert_dominates_grid(inst, m)
            assert rep.passed
            assert max(rep.worst_selection_gap, rep.worst_dstar) <= 1e-14

    def test_random_menus_dominate_grid(self):
        rng = np.random.default_rng(12)
        failed = sum(not self._assert_dominates_grid(*_random_menu(rng)).passed for _ in range(60))
        assert failed > 30  # most of the 60

    @pytest.mark.parametrize("n", range(2, 10))
    def test_induced_pieces_are_the_menu_envelope(self, n):
        ex = menu_example(n=n)
        pieces = menu_induced_pieces(ex.instance, ex.contract)
        claimed = sorted([*ex.facts["virtual_breakpoints"], ex.facts["action_breakpoint_top"]])
        assert [hi for _, hi, _ in pieces[:-1]] == pytest.approx(claimed, rel=0.0, abs=1e-12)
        assert (pieces[0][0], pieces[-1][1]) == ex.contract.support
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        for lo, hi, action in pieces:
            assert menu_selection(ex.instance, ex.contract, 0.5 * (lo + hi))[1] == action


class TestBinaryAction:
    def test_degenerate_single_profile(self):
        # top action never virtually optimal on this support: one profile
        inst = Instance(
            gammas=(0.0, 1.0, 2.0),
            rewards=(0.0, 5.0, 6.0),
            outcome_probs=((1, 0, 0), (0, 0.8, 0.2), (0, 0.3, 0.7)),
        )
        dist = uniform(0.75, 3.0)  # ironed virtual cost 2c - 0.75 > 0.5
        contract = binary_action_optimal(inst, dist)
        assert menu_size(contract) == 1
        assert 2 not in {best_response(inst, contract.profile_at(c), c).action for c in (0.8, 1.5, 2.9)}

    def test_random_battery_revenue_equals_virtual_welfare(self, rng):
        for _ in range(6):
            inst = random_binary_action_instance(rng)
            dist = uniform(0.0, 1.0)
            contract = binary_action_optimal(inst, dist)
            rev = menu_revenue(inst, dist, contract)
            vwel = virtual_welfare(inst, dist)
            assert rev == pytest.approx(vwel, rel=1e-6, abs=1e-9)

    def test_hazard_rent_violation_raises(self):
        # the cheap action is too good at mimicking the expensive one
        inst = Instance(
            gammas=(0.0, 0.1, 3.0),
            rewards=(0.0, 1.0, 30.0),
            outcome_probs=((1, 0, 0), (0, 0.45, 0.55), (0, 0.4, 0.6)),
        )
        with pytest.raises(PreconditionError, match="hazard-rent"):
            binary_action_optimal(inst, uniform(0.0, 1.0))

    def test_wrong_action_count_raises(self, rng):
        inst = random_instance(rng, n=3)
        with pytest.raises(PreconditionError, match="two non-null actions"):
            binary_action_optimal(inst, uniform(0.0, 1.0))


class TestBinaryOutcome:
    def _instance(self):
        # two zero-effort actions: deliberately outside the strict model
        return Instance(
            gammas=(0.0, 0.0, 1.5),
            rewards=(0.0, 3.0, 8.0),
            outcome_probs=((1, 0, 0), (0, 0.6, 0.4), (0, 0.2, 0.8)),
        )

    def test_fixed_point(self):
        inst = self._instance()
        m = MenuContract(
            profiles=(PaymentProfile((0.0, 0.0, 4.0)),),
            breakpoints=(2.0, 0.0),
            profile_index=(0,),
        )
        out = binary_outcome_transform(inst, m)
        assert [list(p.payments) for p in out.profiles] == [[0.0, 0.0, 4.0]]

    def test_null_payment_rescaled(self):
        inst = self._instance()
        m = MenuContract(
            profiles=(PaymentProfile((0.3, 0.0, 0.0)),),
            breakpoints=(2.0, 0.0),
            profile_index=(0,),
        )
        out = binary_outcome_transform(inst, m)
        assert list(out.profiles[0].payments) == pytest.approx([0.0, 0.5, 0.0])

    def test_revenue_weakly_increases(self, rng):
        inst = self._instance()
        dist = uniform(0.0, 2.0)
        for _ in range(10):
            t0 = float(rng.uniform(0, 1))
            t2 = float(rng.uniform(0, 6))
            m = MenuContract(
                profiles=(PaymentProfile((t0, 0.0, 0.0)), PaymentProfile((0.0, 0.0, t2))),
                breakpoints=(2.0, float(rng.uniform(0.5, 1.5)), 0.0),
                profile_index=(0, 1),
            )
            out = binary_outcome_transform(inst, m, dist=dist)
            assert menu_revenue(inst, dist, out) >= menu_revenue(inst, dist, m) - 1e-9

    def test_assumption_gate(self, rng):
        inst = random_instance(rng, n=2, m=2)  # gamma[1] > 0
        m = linear_menu(inst, 0.3, (0.0, 2.0))
        with pytest.raises(AssumptionViolatedError, match="gamma"):
            binary_outcome_transform(inst, m)
