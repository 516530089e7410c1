"""Principal-agent instance data and the agent's best-response behavior.

An instance consists of an ordered action set with per-action effort levels,
an outcome set with monetary rewards, and a row-stochastic matrix mapping
actions to outcome distributions. Action 0 is the opt-out: it requires no
effort and deterministically yields outcome 0 (which pays nothing).

All monetary and effort quantities are plain 64-bit floats; near-ties are
resolved with an explicit absolute tolerance.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Absolute tolerance on agent utilities below which actions count as tied.
TIE_TOL = 1e-9

#: Tolerance on row sums of the outcome matrix.
ROW_SUM_TOL = 1e-12


def as_payments(t: "PaymentProfile | Sequence[float] | np.ndarray") -> np.ndarray:
    """Coerce a payment profile (object or plain sequence) to a float array."""
    if isinstance(t, PaymentProfile):
        return np.asarray(t.payments, dtype=float)
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class PaymentProfile:
    """Outcome-contingent payments, one per outcome.

    Limited liability requires every payment to be non-negative; this is
    checked on construction.
    """

    payments: tuple[float, ...]

    def __post_init__(self) -> None:
        clean = tuple(float(v) for v in self.payments)
        object.__setattr__(self, "payments", clean)
        if any(not np.isfinite(v) or v < 0 for v in clean):
            raise ValueError("payments must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.payments)

    def __iter__(self):
        return iter(self.payments)

    def __getitem__(self, j: int) -> float:
        return self.payments[j]


def linear_payments(instance: "Instance", alpha: float) -> PaymentProfile:
    """Payment profile of a linear contract: ``alpha`` times each reward."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return PaymentProfile(tuple(alpha * r for r in instance.rewards))


@dataclass(frozen=True)
class BestResponse:
    """The agent's chosen action and the resulting split of surplus."""

    action: int
    expected_payment: float
    agent_utility: float
    principal_utility: float


@dataclass(frozen=True)
class Instance:
    """A principal-agent instance.

    Attributes:
        gammas: effort level per action, ``gammas[0] == 0`` and strictly
            increasing for a valid instance.
        rewards: money paid by outcome j to the principal, non-decreasing
            with ``rewards[0] == 0``.
        outcome_probs: row-stochastic matrix, ``outcome_probs[i][j]`` is the
            probability of outcome j under action i.
        expected_rewards: derived, ``R[i] = sum_j F[i][j] * r[j]``.

    Construction never raises on semantic violations; run :func:`validate`
    to obtain the list of broken invariants (several canonical counter-
    examples deliberately bend the standing assumptions).
    """

    gammas: tuple[float, ...]
    rewards: tuple[float, ...]
    outcome_probs: tuple[tuple[float, ...], ...]
    expected_rewards: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        g = tuple(float(v) for v in self.gammas)
        r = tuple(float(v) for v in self.rewards)
        F = tuple(tuple(float(p) for p in row) for row in self.outcome_probs)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "outcome_probs", F)
        rr = np.asarray(r, dtype=float)
        R = tuple(
            float(np.dot(np.asarray(row, dtype=float), rr)) if len(row) == len(r) else float("nan")
            for row in F
        )
        object.__setattr__(self, "expected_rewards", R)

    @property
    def n(self) -> int:
        """Number of non-null actions."""
        return len(self.gammas) - 1

    @property
    def m(self) -> int:
        """Number of non-null outcomes."""
        return len(self.rewards) - 1

    def gamma_array(self) -> np.ndarray:
        return self._frozen("gammas")

    def reward_array(self) -> np.ndarray:
        return self._frozen("rewards")

    def prob_matrix(self) -> np.ndarray:
        return self._frozen("outcome_probs")

    def expected_reward_array(self) -> np.ndarray:
        return self._frozen("expected_rewards")

    def _frozen(self, name: str) -> np.ndarray:
        """Field ``name`` as one shared read-only array, built on first use
        (so a ragged ``outcome_probs`` raises only when it is asked for)."""
        arr = self.__dict__.get("_array_" + name)
        if arr is None:
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            self.__dict__["_array_" + name] = arr
        return arr

    def expected_payments(self, t: PaymentProfile | Sequence[float] | np.ndarray) -> np.ndarray:
        """Expected payment per action for the payment profile ``t``."""
        return self.prob_matrix() @ as_payments(t)


def reject_nan(**args) -> None:
    """Raise ``ValueError`` naming the first argument that is or holds a NaN."""
    for name, value in args.items():
        if value is not None and np.isnan(value).any():
            raise ValueError(f"{name} must not be nan")


def kept(f, owner, partners: tuple, **key):
    """``f(owner, *partners, **key)``, kept on ``owner`` per ``f`` and ``key``.

    Keys compare by type and bits (``0``, ``0.0`` and ``-0.0`` differ), and
    a NaN key raises through :func:`reject_nan`. Each ``f`` has one slot on
    ``owner``; it holds the ``partners`` of its last call, so their ids are
    not reused while it lives, and other partners start it afresh.
    """
    reject_nan(**key)
    slot = owner.__dict__.setdefault("_kept", {}).get(f)
    if slot is None or any(a is not b for a, b in zip(slot[0], partners)):
        slot = owner.__dict__["_kept"][f] = (partners, {})
    bits = pickle.dumps(key)
    if bits not in slot[1]:
        slot[1][bits] = f(owner, *partners, **key)
    return slot[1][bits]


def validate(instance: Instance) -> list[str]:
    """Check every standing model assumption; return the violations found.

    Violations are data, not failures: an empty list means the instance is
    valid. Each message names the offending index. Derived expected rewards
    are only checked once the probability matrix and rewards themselves are
    well formed.
    """
    out: list[str] = []
    g = instance.gammas
    r = instance.rewards
    F = instance.outcome_probs

    if not g:
        out.append("gammas is empty")
    else:
        if not np.isfinite(g).all():
            out.append("gammas contains non-finite values")
        else:
            if g[0] != 0.0:
                out.append("gammas[0] must be 0")
            for i in range(1, len(g)):
                if g[i] <= g[i - 1]:
                    out.append(f"gammas not strictly increasing at index {i}")

    rewards_ok = bool(r)
    if not r:
        out.append("rewards is empty")
    else:
        if not np.isfinite(r).all():
            out.append("rewards contains non-finite values")
            rewards_ok = False
        else:
            if r[0] != 0.0:
                out.append("rewards[0] must be 0")
            for j in range(1, len(r)):
                if r[j] < r[j - 1]:
                    out.append(f"rewards not non-decreasing at index {j}")
            if any(v < 0 for v in r):
                out.append("rewards must be non-negative")

    probs_ok = True
    if len(F) != len(g):
        out.append(f"F has {len(F)} rows, expected {len(g)}")
        probs_ok = False
    for i, row in enumerate(F):
        if len(row) != len(r):
            out.append(f"F row {i} has {len(row)} entries, expected {len(r)}")
            probs_ok = False
            continue
        arr = np.asarray(row, dtype=float)
        if not np.isfinite(arr).all():
            out.append(f"F row {i} contains non-finite values")
            probs_ok = False
            continue
        if (arr < -0.0).any() or (arr > 1.0).any():
            bad = int(np.argmax((arr < 0) | (arr > 1)))
            out.append(f"F entry ({i},{bad}) outside [0,1]")
            probs_ok = False
        s = float(arr.sum())
        if abs(s - 1.0) > ROW_SUM_TOL:
            out.append(f"F row {i} sums to {s:g}, expected 1 within {ROW_SUM_TOL:g}")
            probs_ok = False
    if probs_ok and F:
        if F[0][0] != 1.0:
            out.append("F[0][0] must be 1 (null action yields null outcome)")
        for i in range(1, len(F)):
            if F[i][0] != 0.0:
                out.append(f"F[{i}][0] must be 0 (only the null action yields the null outcome)")

    if probs_ok and rewards_ok and len(F) == len(g):
        R = instance.expected_rewards
        for i in range(1, len(R)):
            if R[i] <= R[i - 1]:
                out.append(f"expected rewards not strictly increasing at index {i} (dominated action)")
    return out


def best_responses(T: np.ndarray, c, gammas: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """The tie-broken best-response column for each row of expected payments.

    ``T`` is ``[B, K]`` (a single row broadcasts against ``c``), ``c`` a
    cost type or one per row, and ``gammas``/``rewards`` give each column's
    effort and expected reward. The tie order: the highest agent utility
    ``T - gammas * c`` within :data:`TIE_TOL`, then the highest principal
    utility ``rewards - T`` within :data:`TIE_TOL`, then the last column.
    The model pins down only the first step; the rest is a fixed convention.
    """
    c = np.asarray(c, dtype=float)
    agent = T - gammas * (c[:, None] if c.ndim else c)
    tied = agent >= np.maximum.reduce(agent, axis=1, keepdims=True) - TIE_TOL
    principal = np.where(tied, rewards - T, -np.inf)
    top = principal >= np.maximum.reduce(principal, axis=1, keepdims=True) - TIE_TOL
    return top.shape[1] - 1 - top[:, ::-1].argmax(axis=1)


def best_response(
    instance: Instance,
    t: PaymentProfile | Sequence[float] | np.ndarray,
    c: float,
) -> BestResponse:
    """The agent's utility-maximizing action at cost type ``c`` facing ``t``,
    tie-broken as in :func:`best_responses`."""
    if c < 0:
        raise ValueError("cost type must be non-negative")
    T = instance.expected_payments(t)
    g = instance.gamma_array()
    R = instance.expected_reward_array()
    action = int(best_responses(T[None, :], c, g, R)[0])
    return BestResponse(
        action=action,
        expected_payment=float(T[action]),
        agent_utility=float(T[action] - g[action] * c),
        principal_utility=float(R[action] - T[action]),
    )
