"""Builders for the canonical counterexample and benchmark settings.

Each builder returns the instance, the distribution(s) it is studied
under, and its headline numeric facts in closed form. Parameters are
validated against the constraints that make the construction work, and a
broken constraint is reported by name.

Some constructions deliberately bend the standing model assumptions (two
zero-effort actions, say); ``agency.instance.validate`` will flag them,
which is expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, PaymentProfile, best_response, best_responses
from .incentives import MenuContract
from .typedist import TypeDistribution, mixture, piecewise, point_mass, uniform

EXAMPLE_IDS = ("gap", "scaling_uniform", "non_monotone", "menu", "non_implementable", "smoothed")


class ConstraintError(ValueError):
    """A builder parameter violates the construction's constraints."""


@dataclass(frozen=True)
class CanonicalExample:
    """A named setting with its distributions and expected facts."""

    example_id: str
    params: dict
    instance: Instance
    distributions: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    contract: MenuContract | None = None


def _require(ok: bool, constraint: str) -> None:
    if not ok:
        raise ConstraintError(f"constraint violated: {constraint}")


# ---------------------------------------------------------------------------
# geometric reward-scaling settings


def _scaling_instance(n: int, delta: float) -> Instance:
    gammas = [0.0] + [delta ** -i - (i + 1) + delta * i for i in range(1, n + 1)]
    rewards = [0.0] + [delta ** -i for i in range(1, n + 1)]
    F = np.eye(n + 1)
    return Instance(gammas=tuple(gammas), rewards=tuple(rewards), outcome_probs=tuple(map(tuple, F)))


def gap(n: int = 10, delta: float = 0.01) -> CanonicalExample:
    """Geometric instance where every linear contract earns at most 2.

    With all mass at unit cost the first-best welfare is ``n + 1 - delta n``
    while any linear share collects at most ``max(2 - delta, 1)``, so the
    linear/first-best ratio grows linearly in n.
    """
    _require(n >= 1, "n >= 1")
    _require(0 < delta < 1, "0 < delta < 1")
    inst = _scaling_instance(n, delta)
    c_bar = 1.05 * max(inst.expected_rewards[i] / inst.gammas[i] for i in range(1, n + 1))
    spread = mixture([(1.0 - delta, point_mass(1.0)), (delta, uniform(1.0, c_bar))])
    facts = {
        "first_best_welfare_at_unit_cost": n + 1 - delta * n,
        "linear_revenue_upper_bound": 2.0,
        "welfare_to_linear_ratio_lower_bound": (n + 1 - delta * n) / 2.0,
    }
    return CanonicalExample(
        example_id="gap",
        params={"n": n, "delta": delta, "c_bar": c_bar},
        instance=inst,
        distributions={"point_mass": point_mass(1.0), "spread": spread},
        facts=facts,
    )


def minimal_linear_alpha(example: CanonicalExample, action: int, c: float) -> float:
    """Smallest linear share incentivizing ``action`` at type ``c``.

    Closed form for the geometric instances: the first action needs
    ``c (1 - 2 delta + delta^2)``, higher ones ``c (1 - delta^i)``.
    """
    if example.example_id not in ("gap", "scaling_uniform"):
        raise ValueError("minimal_linear_alpha applies to the geometric settings")
    delta = example.params["delta"]
    _require(1 <= action <= example.instance.n, "1 <= action <= n")
    if c == 0:
        return 0.0
    if action == 1:
        return c * (1.0 - 2.0 * delta + delta * delta)
    return c * (1.0 - delta ** action)


def scaling_uniform(n: int = 5, delta: float = 0.1, c_bar: float = 5.0) -> CanonicalExample:
    """The geometric instance under uniform types on [1, c_bar].

    The noise level epsilon solves ``r_n = gamma_n (1 + epsilon)``: types
    above ``1 + epsilon`` contribute nothing to welfare, so the setting is
    point-mass-like no matter how dispersed the distribution looks.
    """
    _require(n >= 1, "n >= 1")
    _require(0 < delta < 1, "0 < delta < 1")
    _require(c_bar > 1.0, "c_bar > 1")
    inst = _scaling_instance(n, delta)
    eps = inst.rewards[n] / inst.gammas[n] - 1.0
    # the top action's welfare dies at 1 + eps; lower actions persist a bit
    # longer, the last one up to R_1 / gamma_1 (the top welfare breakpoint)
    dies_at = inst.expected_rewards[1] / inst.gammas[1]
    _require(dies_at < c_bar, "R_1 / gamma_1 < c_bar")
    p_eps = eps / (c_bar - 1.0)
    p_dead = (dies_at - 1.0) / (c_bar - 1.0)
    facts = {
        "epsilon": eps,
        "probability_low_types": p_eps,
        "welfare_dies_at": dies_at,
        "welfare_above_threshold": 0.0,
        "linear_revenue_upper_bound": 2.0 * p_dead,
        "single_contract_revenue_lower_bound": 0.5 * (eps / 2.0) / (c_bar - 1.0) * (n + 1 - delta * n),
    }
    return CanonicalExample(
        example_id="scaling_uniform",
        params={"n": n, "delta": delta, "c_bar": c_bar},
        instance=inst,
        distributions={"uniform": uniform(1.0, c_bar)},
        facts=facts,
    )


# ---------------------------------------------------------------------------
# virtual welfare maximization is not implementable


def non_implementable() -> CanonicalExample:
    """Four actions, three outcomes, and a piecewise-constant type density
    whose virtual-welfare maximizer is monotone yet not implementable."""
    inst = Instance(
        gammas=(0.0, 1.0, 3.0, 5.5),
        rewards=(0.0, 100.0, 300.0),
        outcome_probs=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)),
    )
    delta = 20.0 / 23.0
    dist = piecewise([(0.0, 1.0, delta), (1.0, 4.0, 0.025 * delta), (4.0, 10.0, 0.0125 * delta)])
    facts = {
        "virtual_cost_offsets": (0.0, 39.0, 82.0),
        "virtual_rule_breakpoints": (1.0, 4.0, 9.0),
        "welfare_breakpoints": (100.0, 50.0, 40.0),
        "certificate_anchor": 4.0,
    }
    return CanonicalExample(
        example_id="non_implementable",
        params={"delta": delta},
        instance=inst,
        distributions={"piecewise": dist},
        facts=facts,
    )


# ---------------------------------------------------------------------------
# revenue non-monotonicity in first-order stochastic dominance


def non_monotone(delta: float = 0.02, epsilon: float = 0.01) -> CanonicalExample:
    """Setting where a stochastically stronger agent pool earns the
    principal strictly less than a dominated one."""
    _require(epsilon < delta, "epsilon < delta")
    _require((1.0 + delta) * delta < 0.25, "(1 + delta) * delta < 0.25")
    _require(7.0 * delta + 6.0 * epsilon < 0.5, "7 delta + 6 epsilon < 0.5")
    inv = 1.0 / delta
    inst = Instance(
        gammas=(0.0, 0.0, 0.5, inv),
        rewards=(0.0, 0.0, 0.0, inv),
        outcome_probs=(
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0 - 0.25 * delta, 0.0, 0.25 * delta),
            (0.0, 0.5 - delta, 0.5, delta),
            (0.0, 0.0, 1.0 - delta - delta * delta, delta + delta * delta),
        ),
    )
    G = TypeDistribution(parts=(), atoms=((0.0, epsilon), (1.0, 1.0 - epsilon)))
    H = point_mass(1.0)
    facts = {"revenue_H": 0.5, "revenue_G_strict_upper_bound": 0.5}
    return CanonicalExample(
        example_id="non_monotone",
        params={"delta": delta, "epsilon": epsilon},
        instance=inst,
        distributions={"G": G, "H": H},
        facts=facts,
    )


def non_monotone_audit(
    delta: float = 0.02,
    epsilon: float = 0.01,
    step: float = 0.01,
    box: tuple[float, float] = (0.0, 2.0),
    chunk: int = 400_000,
) -> dict:
    """Exact revenue under H versus a grid search over contracts for G.

    The explicit contract paying 1 on outcome 2 earns exactly one half
    under H. For G the audit enumerates all payment profiles on the grid
    (the null-outcome payment pinned to zero: it only subsidizes opting
    out) and reports the best revenue found, which stays below one half.
    """
    ex = non_monotone(delta, epsilon)
    inst = ex.instance
    br = best_response(inst, (0.0, 0.0, 1.0, 0.0), 1.0)
    revenue_h = br.principal_utility

    F = inst.prob_matrix()
    g = inst.gamma_array()
    R = inst.expected_reward_array()
    axis = np.arange(box[0], box[1] + step / 2.0, step)
    total = len(axis) ** 3
    best_rev = -math.inf
    best_t = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.stack(np.unravel_index(idx, (len(axis),) * 3), axis=1)
        t_rest = axis[coords]  # payments on outcomes 1..3
        T = t_rest @ F[:, 1:].T  # (B, 4); null-outcome payment is zero
        a0 = best_responses(T, 0.0, g, R)
        a1 = best_responses(T, 1.0, g, R)
        rows = np.arange(len(idx))
        rev = epsilon * (R[a0] - T[rows, a0]) + (1.0 - epsilon) * (R[a1] - T[rows, a1])
        k = int(np.argmax(rev))
        if float(rev[k]) > best_rev:
            best_rev = float(rev[k])
            best_t = (0.0, *[float(v) for v in t_rest[k]])
    return {
        "revenue_H": float(revenue_h),
        "revenue_G_upper": float(best_rev),
        "best_t_for_G": best_t,
        "action_under_H": br.action,
        "grid_step": step,
        "box": list(box),
        "grid_relative": True,
        "gap_confirmed": bool(revenue_h >= 0.5 and best_rev < 0.5),
    }


# ---------------------------------------------------------------------------
# menu-size complexity


def menu(n: int = 8, r1: float = 10.0, r2: float | None = None, c_bar: float | None = None) -> CanonicalExample:
    """Quadratic-effort setting whose optimal contract needs ~n/2 profiles.

    Effort ``i^2/n``, two paying outcomes, uniform types on [1, c_bar].
    The returned contract implements the virtual-welfare maximizer with
    ``ceil(n/2)`` distinct payment profiles, each serving two consecutive
    actions.
    """
    _require(n >= 2, "n >= 2")
    if r2 is None:
        r2 = r1 + 2.0 * (n - 1) + 3.0
    _require(r1 + 2.0 * (n - 1) + 1.0 < r2, "r1 + 2(n-1) + 1 < r2")
    k_top = math.ceil(n / 2)
    r1_min = 2.0 * k_top * (2.0 * k_top - 1.0) / n  # n - 1 for even n, n + 1 for odd n
    _require(r1 >= r1_min, f"r1 >= 2k(2k-1)/n = {r1_min:g}, k = ceil(n/2) (keeps the menu payments non-negative)")
    dr = r2 - r1
    z_top = (n * r1 + dr + 1.0) / 2.0
    if c_bar is None:
        c_bar = z_top + 11.0
    _require(c_bar > z_top, "c_bar > (n r1 + (r2 - r1) + 1)/2")

    gammas = [i * i / n for i in range(n + 1)]
    F = [(1.0, 0.0, 0.0)] + [(0.0, 1.0 - i / n, i / n) for i in range(1, n + 1)]
    inst = Instance(gammas=tuple(gammas), rewards=(0.0, r1, r2), outcome_probs=tuple(F))
    dist = uniform(1.0, c_bar)

    inner = [dr / (4.0 * i + 2.0) + 0.5 for i in range(1, n)]  # between i+1 and i
    breakpoints = tuple([c_bar, z_top] + inner + [1.0])
    actions = tuple(range(n + 1))

    profiles = []
    for k in range(1, k_top + 1):
        t1 = r1 / 2.0 + (2.0 * k - 4.0 * k * k) / (2.0 * n)
        t2 = t1 + (dr + 4.0 * k - 1.0) / 2.0
        profiles.append(PaymentProfile((0.0, t1, t2)))
    profile_of_action = [0] + [(i + 1) // 2 - 1 for i in range(1, n + 1)]
    contract = MenuContract(
        profiles=tuple(profiles),
        breakpoints=breakpoints,
        profile_index=tuple(profile_of_action[a] for a in actions),
        u_bar=0.0,
    )
    facts = {
        "menu_size": k_top,
        "virtual_breakpoints": tuple(inner),
        "action_breakpoint_top": z_top,
        "expected_payments": tuple(
            r1 / 2.0 + i * dr / (2.0 * n) + i * i / (2.0 * n) for i in range(1, n + 1)
        ),
    }
    return CanonicalExample(
        example_id="menu",
        params={"n": n, "r1": r1, "r2": r2, "c_bar": c_bar},
        instance=inst,
        distributions={"uniform": dist},
        facts=facts,
        contract=contract,
    )


# ---------------------------------------------------------------------------
# smoothed point mass


def smoothed(epsilon: float = 0.1) -> CanonicalExample:
    """A demo instance under the noise-perturbed unit point mass."""
    _require(0.0 < epsilon < 1.0, "0 < epsilon < 1")
    inst = Instance(
        gammas=(0.0, 1.0, 2.5),
        rewards=(0.0, 4.0, 10.0),
        outcome_probs=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.25, 0.75)),
    )
    dist = mixture([(1.0 - epsilon, point_mass(1.0)), (epsilon, uniform(0.0, 2.0))])
    facts = {
        "welfare_guarantee": 4.0 * (2.0 - epsilon) / epsilon,
        "slow_increase_beta": epsilon / (2.0 * (2.0 - epsilon)),
    }
    return CanonicalExample(
        example_id="smoothed",
        params={"epsilon": epsilon},
        instance=inst,
        distributions={"smoothed": dist},
        facts=facts,
    )


def build(example_id: str, **params) -> CanonicalExample:
    """Dispatch to the named builder."""
    builders = {
        "gap": gap,
        "scaling_uniform": scaling_uniform,
        "non_monotone": non_monotone,
        "menu": menu,
        "non_implementable": non_implementable,
        "smoothed": smoothed,
    }
    if example_id not in builders:
        raise ValueError(f"unknown example '{example_id}' (choose from {', '.join(EXAMPLE_IDS)})")
    return builders[example_id](**params)
