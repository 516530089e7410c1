"""Monotone piecewise-constant allocation rules as upper envelopes of lines.

Every rule here arises as the argmax over actions of an affine function of
the cost type: welfare maximization, linear-contract best responses, and
virtual-welfare maximization (by composing with the inverse ironed virtual
cost). Rules store descending breakpoints; the action on the half-open
interval ``(z[k+1], z[k]]`` is ``actions[k]``, so the higher action owns
each breakpoint. Envelopes are exact: a piece survives however narrow it
is, so every breakpoint is a crossing of two lines that are adjacent on the
envelope, and no other crossing is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, PaymentProfile, as_payments, kept
from .typedist import IronedVirtualCost


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
            if cross <= j_start:
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

    breakpoints = [hi] + [p[0] for p in pieces[::-1][:-1]] + [lo]
    actions = [p[2] for p in pieces[::-1]]
    return AllocationRule(breakpoints=tuple(breakpoints), actions=tuple(actions))


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


def welfare_envelope(instance: Instance) -> AllocationRule:
    """The welfare-maximizing rule over all costs ``(0, inf)``, kept on
    ``instance`` (see ``instance.kept``). Its interior breakpoints are the
    crossings z_k of the welfare envelope; every reader of the welfare
    envelope takes it from here."""
    return kept(_welfare_envelope, instance, ())


def _welfare_envelope(instance: Instance) -> AllocationRule:
    return envelope_rule(instance, 1.0, (0.0, math.inf))


def virtual_rule(instance: Instance, iv: IronedVirtualCost) -> AllocationRule:
    """Virtual-welfare-maximizing rule over ``iv``'s cost range: welfare
    argmax composed with the ironed virtual cost. Its breakpoints are the
    inverse images of the welfare envelope's interior breakpoints, solved in
    one inverse; levels outside the ironed range map to its ends. Kept on
    ``instance`` per ``iv`` (see ``instance.kept``)."""
    return kept(_virtual_rule, instance, (iv,))


def _virtual_rule(instance: Instance, iv: IronedVirtualCost) -> AllocationRule:
    lo, hi = iv.c_low, iv.c_high
    envelope = welfare_envelope(instance)
    z = [hi, *iv.inverse(np.asarray(envelope.breakpoints[1:-1])).tolist(), lo]
    wins = [k for k in range(len(envelope.actions)) if z[k] > z[k + 1]]  # pieces of positive width
    return AllocationRule(breakpoints=(hi, *(z[k + 1] for k in wins[:-1]), lo),
                          actions=tuple(envelope.actions[k] for k in wins))


def rule_from_payments(
    instance: Instance,
    t: PaymentProfile | np.ndarray | list[float],
    support: tuple[float, float],
) -> AllocationRule:
    """Best-response rule induced by an arbitrary payment profile."""
    T = instance.expected_payments(as_payments(t))
    R = instance.expected_reward_array()
    return _envelope_rule_from_lines(T, instance.gamma_array(), R - T, support)
