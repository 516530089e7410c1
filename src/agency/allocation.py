"""Monotone piecewise-constant allocation rules as upper envelopes of lines.

Every rule here arises as the argmax over actions of an affine function of
the cost type: welfare maximization, linear-contract best responses, and
virtual-welfare maximization (by composing with the inverse ironed virtual
cost). Rules store descending breakpoints; the action on the half-open
interval ``(z[k+1], z[k]]`` is ``actions[k]``, so the higher action owns
each breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, PaymentProfile, as_payments, kept
from .typedist import IronedVirtualCost

#: Crossings closer than this (in cost) are merged into one breakpoint.
MERGE_TOL = 1e-9


def interval_index(breakpoints, c) -> np.ndarray:
    """Index k of the interval ``(z[k+1], z[k]]`` holding each cost ``c``,
    for descending breakpoints ``z``; costs outside the support are clamped
    to its first or last interval."""
    z = np.asarray(breakpoints, dtype=float)
    k = np.searchsorted(-z, -np.asarray(c, dtype=float), side="right") - 1
    return np.clip(k, 0, len(z) - 2)


@dataclass(frozen=True)
class AllocationRule:
    """Map from cost type to action.

    Attributes:
        breakpoints: strictly decreasing costs ``z[0] > ... > z[-1]`` tiling
            the support; ``z[0]`` is the support top, ``z[-1]`` the bottom.
        actions: one action per interval, ``actions[k]`` on
            ``(z[k+1], z[k]]``; strictly increasing toward lower cost.
    """

    breakpoints: tuple[float, ...]
    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        z = tuple(float(v) for v in self.breakpoints)
        a = tuple(int(v) for v in self.actions)
        if len(z) != len(a) + 1 or not a:
            raise ValueError("need one action per breakpoint interval")
        if any(z[i] <= z[i + 1] for i in range(len(z) - 1)):
            raise ValueError("breakpoints must be strictly decreasing")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("actions must strictly increase toward lower cost")
        object.__setattr__(self, "breakpoints", z)
        object.__setattr__(self, "actions", a)

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[-1], self.breakpoints[0]

    def action_at(self, c) -> np.ndarray | int:
        """Action at cost ``c`` (clamped to the support)."""
        out = np.asarray(self.actions)[interval_index(self.breakpoints, c)]
        return int(out) if out.ndim == 0 else out

    def __call__(self, c):
        return self.action_at(c)

    def intervals(self) -> list[tuple[float, float, int]]:
        """Ascending-cost list of ``(lo, hi, action)`` intervals."""
        z = self.breakpoints
        return [(z[k + 1], z[k], self.actions[k]) for k in range(len(self.actions))][::-1]

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "actions": list(self.actions)}


def _envelope_rule_from_lines(
    intercepts: np.ndarray,
    gammas: np.ndarray,
    preference: np.ndarray,
    support: tuple[float, float],
) -> AllocationRule:
    """Upper envelope of ``intercepts[i] - gammas[i] * c`` over the support.

    Among lines with equal slope only the best intercept survives
    (preference, then index, breaks exact ties). The returned rule assigns
    each breakpoint to the higher action.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError("support must satisfy low < high")

    by_gamma: dict[float, int] = {}
    for i in range(len(gammas)):
        g = float(gammas[i])
        j = by_gamma.get(g)
        if j is None or (intercepts[i], preference[i], i) > (intercepts[j], preference[j], j):
            by_gamma[g] = i
    order = sorted(by_gamma.values(), key=lambda i: -gammas[i])

    stack: list[tuple[int, float]] = []  # (action, cost where it starts to win)
    for i in order:
        start = -np.inf
        while stack:
            j, j_start = stack[-1]
            cross = (intercepts[j] - intercepts[i]) / (gammas[j] - gammas[i])
            if cross <= j_start + MERGE_TOL:
                stack.pop()
                continue
            start = cross
            break
        stack.append((i, start))

    pieces = []  # ascending cost; piece owns (start, next_start]
    for k, (action, start) in enumerate(stack):
        end = stack[k + 1][1] if k + 1 < len(stack) else np.inf
        a = max(start, lo)
        b = min(end, hi)
        if b > a:
            pieces.append((a, b, action))
    if not pieces:
        # everything collapsed onto the support edge; the last stack piece
        # (largest cost range) covers the whole support
        pieces = [(lo, hi, stack[-1][0])]
    pieces[0] = (lo, pieces[0][1], pieces[0][2])
    pieces[-1] = (pieces[-1][0], hi, pieces[-1][2])

    breakpoints = [hi] + [p[0] for p in pieces[::-1][:-1]] + [lo]
    actions = [p[2] for p in pieces[::-1]]
    return AllocationRule(breakpoints=tuple(breakpoints), actions=tuple(actions))


def _crossings(T: np.ndarray, g: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Costs strictly inside ``(lo, hi)`` where two lines ``T[i] - g[i] * c``
    of different slopes cross, pairs taken in the order ``i < j``."""
    i, j = np.triu_indices(len(g), 1)
    i, j = i[g[i] != g[j]], j[g[i] != g[j]]
    x = (T[i] - T[j]) / (g[i] - g[j])
    return x[(lo < x) & (x < hi)]


def _welfare_breakpoint_candidates(instance: Instance) -> list[float]:
    """All pairwise welfare crossings (a superset of the true breakpoints)."""
    return np.unique(_crossings(instance.expected_reward_array(), instance.gamma_array(), 0.0, np.inf)).tolist()


def envelope_rule(instance: Instance, alpha: float, support: tuple[float, float]) -> AllocationRule:
    """Best-response rule of a linear contract with share ``alpha``.

    ``alpha = 1`` gives the welfare-maximizing rule. Interior breakpoints
    between surviving consecutive actions i, i+1 sit at
    ``alpha * (R[i+1] - R[i]) / (gamma[i+1] - gamma[i])``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    R = instance.expected_reward_array()
    T = alpha * R
    return _envelope_rule_from_lines(T, instance.gamma_array(), R - T, support)


def virtual_rule(instance: Instance, iv: IronedVirtualCost) -> AllocationRule:
    """Virtual-welfare-maximizing rule over ``iv``'s cost range: welfare
    argmax composed with the ironed virtual cost. Its breakpoints are the
    inverse images of the interior breakpoints of the welfare envelope over
    the ironed cost's range, solved in one inverse. Kept on ``instance`` per
    ``iv`` (see ``instance.kept``)."""
    return kept(_virtual_rule, instance, (iv,))


def _virtual_rule(instance: Instance, iv: IronedVirtualCost) -> AllocationRule:
    lo, hi = iv.c_low, iv.c_high
    q_lo, q_hi = iv.value(np.asarray([lo, hi], dtype=float)).tolist()
    if not q_lo < q_hi:
        # constant ironed virtual cost: a single action wins everywhere
        R = instance.expected_reward_array()
        vwel = R - instance.gamma_array() * q_lo
        best = int(np.flatnonzero(vwel >= vwel.max() - MERGE_TOL)[-1])
        return AllocationRule(breakpoints=(hi, lo), actions=(best,))
    q_rule = envelope_rule(instance, 1.0, (q_lo, q_hi))

    pieces = []  # descending cost
    z = [hi, *iv.inverse(np.asarray(q_rule.breakpoints[1:-1])).tolist(), lo]
    for k, action in enumerate(q_rule.actions):
        c_hi, c_lo = min(hi, z[k]), max(lo, z[k + 1])
        if c_hi > c_lo:
            pieces.append((c_lo, c_hi, action))
    if not pieces:
        pieces = [(lo, hi, int(q_rule.actions[-1]))]
    pieces[0] = (pieces[0][0], hi, pieces[0][2])
    pieces[-1] = (lo, pieces[-1][1], pieces[-1][2])
    breakpoints = [hi] + [p[0] for p in pieces[:-1]] + [lo]
    actions = [p[2] for p in pieces]
    return AllocationRule(breakpoints=tuple(breakpoints), actions=tuple(actions))


def rule_from_payments(
    instance: Instance,
    t: PaymentProfile | np.ndarray | list[float],
    support: tuple[float, float],
) -> AllocationRule:
    """Best-response rule induced by an arbitrary payment profile."""
    T = instance.expected_payments(as_payments(t))
    R = instance.expected_reward_array()
    return _envelope_rule_from_lines(T, instance.gamma_array(), R - T, support)
