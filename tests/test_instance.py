import numpy as np
import pytest

from agency import Instance, PaymentProfile, best_response, linear_payments, validate
from agency.instance import TIE_TOL, best_responses

from conftest import random_instance


def minimal():
    return Instance(gammas=(0, 1), rewards=(0, 1), outcome_probs=((1, 0), (0, 1)))


def appx_non_implement():
    return Instance(
        gammas=(0, 1, 3, 5.5),
        rewards=(0, 100, 300),
        outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.5, 0.5), (0, 0, 1)),
    )


class TestValidate:
    def test_minimal_valid(self):
        assert validate(minimal()) == []

    def test_counterexample_instance_valid(self):
        inst = appx_non_implement()
        assert validate(inst) == []
        assert inst.expected_rewards == (0.0, 100.0, 200.0, 300.0)

    def test_gamma_order_broken(self):
        inst = Instance(gammas=(0, 2, 1), rewards=(0, 1, 2),
                        outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert "gammas not strictly increasing at index 2" in validate(inst)

    def test_row_sum_reported_with_index(self):
        inst = Instance(gammas=(0, 1), rewards=(0, 1),
                        outcome_probs=((1, 0), (0, 0.97)))
        msgs = validate(inst)
        assert any(m.startswith("F row 1 sums to 0.97") for m in msgs)

    def test_null_action_structure(self):
        inst = Instance(gammas=(0, 1), rewards=(0, 1),
                        outcome_probs=((0.9, 0.1), (0, 1)))
        assert any("F[0][0] must be 1" in m for m in msgs_or(inst))

    def test_dominated_action_flagged(self):
        inst = Instance(gammas=(0, 1, 2), rewards=(0, 1, 1),
                        outcome_probs=((1, 0, 0), (0, 0, 1), (0, 0, 1)))
        assert any("dominated" in m for m in validate(inst))


def msgs_or(inst):
    return validate(inst)


class TestArrays:
    def test_built_once_and_read_only(self):
        inst = appx_non_implement()
        for get in (inst.gamma_array, inst.reward_array, inst.prob_matrix, inst.expected_reward_array):
            assert get() is get()
            with pytest.raises(ValueError, match="read-only"):
                get()[0] = 1.0
        assert inst.prob_matrix().tolist() == [list(row) for row in inst.outcome_probs]

    def test_ragged_matrix_still_reaches_validate(self):
        inst = Instance(gammas=(0, 1), rewards=(0, 1), outcome_probs=((1, 0), (0, 0.5, 0.5)))
        assert "F row 1 has 3 entries, expected 2" in validate(inst)


class TestBestResponse:
    def test_null_contract(self):
        br = best_response(minimal(), (0.0, 0.0), 0.7)
        assert br.action == 0
        assert br.agent_utility == 0.0
        assert br.principal_utility == 0.0

    def test_principal_favoring_tie_break(self):
        # payments with t2 - t1 = 16 tie actions 1 and 2 at c = 4; the
        # principal nets more from action 2
        inst = appx_non_implement()
        br = best_response(inst, (0.0, 10.0, 26.0), 4.0)
        assert br.action == 2
        assert br.agent_utility == pytest.approx(6.0)
        assert br.principal_utility == pytest.approx(182.0)

    def test_matches_exhaustive_argmax(self, rng):
        for _ in range(200):
            inst = random_instance(rng, n=4)
            t = rng.uniform(0, 10, inst.m + 1)
            t[0] = 0.0
            c = float(rng.uniform(0, 8))
            br = best_response(inst, t, c)
            T = inst.expected_payments(t)
            util = T - inst.gamma_array() * c
            assert br.agent_utility == pytest.approx(float(util.max()), abs=1e-9)

    def test_utility_non_increasing_in_cost(self, rng):
        inst = random_instance(rng)
        t = rng.uniform(0, 5, inst.m + 1)
        t[0] = 0.0
        cs = np.linspace(0, 10, 50)
        utils = [best_response(inst, t, float(c)).agent_utility for c in cs]
        assert all(u1 >= u2 - 1e-12 for u1, u2 in zip(utils, utils[1:]))

    def test_scaling_invariance(self, rng):
        inst = random_instance(rng)
        lam = 3.7
        scaled = Instance(
            gammas=inst.gammas,
            rewards=tuple(lam * r for r in inst.rewards),
            outcome_probs=inst.outcome_probs,
        )
        t = rng.uniform(0, 4, inst.m + 1)
        t[0] = 0.0
        c = 1.3
        br = best_response(inst, t, c)
        br2 = best_response(scaled, tuple(lam * v for v in t), lam * c)
        assert br2.action == br.action
        assert br2.agent_utility == pytest.approx(lam * br.agent_utility, rel=1e-12)

    def test_linear_profile_rescales_cost(self, rng):
        # a share-alpha contract at cost c behaves like full rewards at c/alpha
        inst = random_instance(rng)
        alpha = 0.4
        for c in (0.5, 2.0, 5.0):
            a1 = best_response(inst, linear_payments(inst, alpha), c).action
            a2 = best_response(inst, linear_payments(inst, 1.0), c / alpha).action
            assert a1 == a2


def _tie_order(T, c, g, R):
    """The documented tie order, one row at a time."""
    agent = T - g * c
    tied = [k for k in range(len(T)) if agent[k] >= agent.max() - TIE_TOL]
    best = max(R[k] - T[k] for k in tied)
    return max(k for k in tied if R[k] - T[k] >= best - TIE_TOL)


class TestBestResponses:
    def test_rows_follow_tie_order(self, rng):
        inst = random_instance(rng, n=4)
        g, R = inst.gamma_array(), inst.expected_reward_array()
        T = rng.uniform(0, 10, (300, inst.n + 1))
        # every third row ties actions 1 and 2 for the agent at c = 1 ...
        T[::3, 1] += 20.0
        T[::3, 2] = T[::3, 1] + (g[2] - g[1])
        # ... and every sixth row ties them for the principal too
        T[::6, 2] = T[::6, 1] + (R[2] - R[1])
        T[::6, 1] = T[::6, 2] - (g[2] - g[1])
        got = best_responses(T, 1.0, g, R)
        assert got.tolist() == [_tie_order(row, 1.0, g, R) for row in T]
        c = rng.uniform(0, 4, len(T))
        got = best_responses(T, c, g, R)
        assert got.tolist() == [_tie_order(row, ci, g, R) for row, ci in zip(T, c)]

    def test_single_row_broadcasts_over_types(self, rng):
        inst = random_instance(rng)
        t = rng.uniform(0, 10, inst.m + 1)
        cs = np.linspace(0.0, 6.0, 41)
        got = best_responses(inst.expected_payments(t)[None, :], cs, inst.gamma_array(),
                             inst.expected_reward_array())
        assert got.tolist() == [best_response(inst, t, float(c)).action for c in cs]


def test_payment_profile_rejects_negative():
    with pytest.raises(ValueError):
        PaymentProfile((0.0, -1.0))
