"""Incentive compatibility: payment identity, curvature checks, exact LPs, menus.

The implementability test for an allocation rule x anchored at type c and
payments t is that the running integral of ``gamma[x(z)] - gamma[i*(t,z)]``
from c never becomes positive. Writing W(c) for the remaining-effort
integral of the rule and U_t for the agent's utility envelope under t, the
integral from c to c' equals ``h(c) - h(c')`` with ``h = W - U_t``; both
terms are piecewise linear, so the worst deviation is found exactly at the
kinks of h. Over all payments at once, the least worst deviation and the
best contract for a distribution of atoms are small LPs, decided for every
``t >= 0`` rather than on a grid by the package's own dense simplex; its
float answer only picks the active set, and a certificate holds only when
the dual solved on that set in ``Fraction`` proves it.
A menu's selection gap and D* kink only where the envelope of its (action,
profile) lines or one profile's own envelope kinks, so its IC is checked
exactly there and at its breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .allocation import AllocationRule, _envelope_rule_from_lines, interval_index, rule_from_payments, virtual_rule
from .instance import TIE_TOL, Instance, PaymentProfile, best_responses, is_number, linear_payments
from .metrics import add_atom_revenue
from .typedist import TypeDistribution, ironed

CURVATURE_TOL = 1e-9
PROFILE_ROUND = 1e-9


class PreconditionError(ValueError):
    """A construction's precondition fails; the message names it."""


class AssumptionViolatedError(ValueError):
    """A standing assumption of a transform does not hold."""


# ---------------------------------------------------------------------------
# piecewise-constant action paths and their effort integrals


class _ActionPath:
    """A piecewise-constant map from cost to action with its effort integral.

    Unlike :class:`AllocationRule` this does not require monotone actions,
    so it can also represent the stitched best responses of a menu.
    """

    def __init__(self, knots: Sequence[float], actions: Sequence[int], gammas: np.ndarray):
        self.knots = np.asarray(knots, dtype=float)  # ascending, len = len(actions)+1
        self.actions = np.asarray(actions, dtype=int)
        seg = gammas[self.actions] * np.diff(self.knots)
        self._w_at_knots = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    @classmethod
    def from_rule(cls, rule: AllocationRule, instance: Instance) -> "_ActionPath":
        z = rule.breakpoints[::-1]
        return cls(z, rule.actions[::-1], instance.gamma_array())

    @property
    def support(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def tail_effort(self, c) -> np.ndarray | float:
        """W(c) = integral of gamma[x(z)] dz from c to the support top."""
        out = np.interp(np.asarray(c, dtype=float), self.knots, self._w_at_knots)
        return float(out) if np.isscalar(c) or np.asarray(c).ndim == 0 else out


def expected_payment_identity(
    rule: AllocationRule, instance: Instance, c: float, u_bar: float = 0.0
) -> float:
    """The unique expected payment pinned down by an implementable rule.

    ``gamma[x(c)] * c`` plus the remaining-effort integral from c to the
    top of the support, plus the utility ``u_bar`` reserved for the highest
    type. Evaluated exactly as a breakpoint sum.
    """
    path = _ActionPath.from_rule(rule, instance)
    a = rule.action_at(c)
    return float(instance.gammas[a] * c + path.tail_effort(c) + u_bar)


# ---------------------------------------------------------------------------
# curvature check


@dataclass(frozen=True)
class CurvatureCheck:
    """Worst deviation of the implementability integral anchored at a type."""

    anchor: float
    worst_deviation: float
    dstar: float
    passed: bool
    consistent: bool


def _deviation_candidates(instance: Instance, T: np.ndarray, path: _ActionPath) -> np.ndarray:
    """The path's knots and the kinks of the utility envelope under ``T``."""
    R = instance.expected_reward_array()
    envelope = _envelope_rule_from_lines(T, instance.gamma_array(), R - T, path.support)
    return np.unique(np.concatenate([path.knots, envelope.breakpoints]))


def _utility_envelope(instance: Instance, T: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.max(T[None, :] - instance.gamma_array()[None, :] * np.asarray(c)[:, None], axis=1)


def _anchored_dstar(
    instance: Instance, path: _ActionPath, T: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, float]:
    """D* at each anchor for expected payments ``T``, and the worst deviation.

    ``D*(c) = h(c) - min h``: the minimum of ``h = W - U_t`` over the
    deviation candidates does not depend on the anchor, so it is taken once.
    """
    cand = _deviation_candidates(instance, T, path)
    h = path.tail_effort(cand) - _utility_envelope(instance, T, cand)
    k = int(np.argmin(h))
    dstar = path.tail_effort(anchors) - _utility_envelope(instance, T, anchors) - h[k]
    return dstar, float(cand[k])


def curvature_check(
    instance: Instance,
    rule: AllocationRule,
    c: float,
    t_c: PaymentProfile | Sequence[float] | np.ndarray,
) -> CurvatureCheck:
    """Check the anchored implementability integral for payments ``t_c``.

    The worst value D* of the integral over all deviation types is located
    exactly on the merged kink set of the rule and the payment envelope;
    the check passes when D* stays within :data:`CURVATURE_TOL`.
    """
    path = _ActionPath.from_rule(rule, instance)
    T = instance.expected_payments(t_c)
    (dstar,), worst = _anchored_dstar(instance, path, T, np.asarray([c], dtype=float))
    agent = T - instance.gamma_array() * c
    consistent = bool(agent[rule.action_at(c)] >= agent.max() - TIE_TOL)
    return CurvatureCheck(
        anchor=float(c),
        worst_deviation=worst,
        dstar=float(dstar),
        passed=bool(dstar <= CURVATURE_TOL),
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# exact LPs: non-implementability certificates and best contracts


_LP_TOL, _LP_PIVOTS = 1e-9, 1000


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    T -= np.outer(np.where(np.arange(len(T)) == r, 0.0, T[:, j]), T[r])
    basis[r] = j


def _simplex(T: np.ndarray, basis: np.ndarray, c: np.ndarray, cols: int) -> str:
    """Minimize ``c`` on tableau ``T`` (values in the last column) by Bland's
    rule: the lowest-index improving column among the first ``cols`` enters,
    and the lowest-index basic variable leaves among ratio ties: no cycles."""
    T[-1] = c - c[basis] @ T[:-1]  # the reduced costs
    for _ in range(_LP_PIVOTS):
        enter = np.flatnonzero(T[-1, :cols] < -_LP_TOL)
        if not len(enter):
            return "optimal"
        rows = np.flatnonzero(T[:-1, enter[0]] > _LP_TOL)
        if not len(rows):
            return "unbounded"
        ratio = T[rows, -1] / T[rows, enter[0]]
        _pivot(T, basis, min(rows[ratio == ratio.min()], key=basis.__getitem__), enter[0])
    return "iteration_limit"


def _linprog(cost, A_ub, b_ub, free: int = 0):
    """``min cost.x`` over ``A_ub x <= b_ub``, ``x >= 0`` but for the last
    ``free`` entries, each split into a +/- pair: ``(x, marginals, status)``,
    marginals being the row duals d cost / d b_ub <= 0 as HiGHS reports them,
    both None unless optimal. A dense two-phase tableau simplex: phase 1 drives
    out an artificial column per row with a negative bound."""
    A, b = np.asarray(A_ub, dtype=float), np.asarray(b_ub, dtype=float)
    (k, m), neg = A.shape, np.flatnonzero(b < 0)
    n, art = m + free, m + free + k + neg
    T = np.zeros((k + 1, n + 2 * k + 1))
    T[:k, :n], T[:k, n:n + k], T[:k, -1] = np.hstack([A, -A[:, m - free:]]), np.eye(k), b
    T[neg] *= -1.0
    T[neg, art] = 1.0
    basis = np.where(b < 0, n + k, n) + np.arange(k)
    c = np.r_[np.zeros(n + k), np.ones(k), 0.0]
    status = _simplex(T, basis, c, n + k)  # phase 1: the artificials' sum
    if status == "optimal" and T[k, -1] < -_LP_TOL:
        status = "infeasible"
    if status == "optimal":
        for r in np.flatnonzero(basis >= n + k):  # an artificial left at zero
            _pivot(T, basis, r, int(np.argmax(np.abs(T[r, :n + k]))))
        c[:n], c[n:] = np.append(cost, -np.asarray(cost, dtype=float)[m - free:]), 0.0
        status = _simplex(T, basis, c, n + k)
    if status != "optimal":
        return None, None, status
    x = np.zeros(T.shape[1])
    x[basis] = T[:k, -1]
    x[m - free:m] -= x[m:n]
    return x[:m], -T[k, n:n + k], status


def _payments(x: np.ndarray) -> tuple[float, ...]:
    return tuple(float(v) + 0.0 for v in np.maximum(x, 0.0))  # an LP's t, clipped, without -0.0


def _best_response_rows(instance: Instance, a: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``(A, d)`` with ``A t <= d`` iff action ``a`` is a best response at
    cost ``c`` to payments ``t``: ``A = F - 1 F_a``, ``d = (gamma - gamma_a) c``."""
    F, g = instance.prob_matrix(), instance.gamma_array()
    return F - F[a], (g - g[a]) * c


def _exact_rows(instance: Instance, a: int) -> list[list[Fraction]]:
    """``A = F - 1 F_a`` in exact arithmetic, each outcome row read as the
    distribution it stands for: divided by its exact sum, which changes no
    row that sums to one in binary. A constant payment then changes no
    incentive, as in the model; on raw rows whose sums round away from one,
    paying about 1e16 on every outcome exploits the rounding."""
    F = [[Fraction(p) / sum(map(Fraction, row)) for p in row] for row in instance.outcome_probs]
    return [[p - q for p, q in zip(row, F[a])] for row in F]


def _dual_bound(A: list[list[Fraction]], b: np.ndarray, d: np.ndarray, w: list[Fraction]) -> Fraction | None:
    """A lower bound on s over ``A t - s <= b, A t <= d, t >= 0``, proved by
    the dual vector ``w = (y, z)`` in exact arithmetic on the exact rows and
    the float ``b``, ``d``, or None when ``w`` is not dual feasible there. For
    ``y, z >= 0`` with ``A^T (y + z) >= 0``: ``s sum(y) >= y.(A t - b) >= -y.b - z.d``."""
    y, z = w[: len(b)], w[len(b):]
    u = [yi + zi for yi, zi in zip(y, z)]
    if min(w) < 0 or sum(y) <= 0 or any(sum(ui * aij for ui, aij in zip(u, col)) < 0 for col in zip(*A)):
        return None
    return -(sum(yi * Fraction(bi) for yi, bi in zip(y, b)) + sum(zi * Fraction(di) for zi, di in zip(z, d))) / sum(y)


def _active_set_dual(A: list[list[Fraction]], dual: np.ndarray, t: tuple[float, ...]) -> list[Fraction] | None:
    """The dual vector ``w = (y, z)`` solved exactly on the LP's active set:
    its support is ``dual``'s, every column j with ``t_j > 0`` is tight,
    ``A_j^T (y + z) = 0``, and ``sum(y) = 1``. None when that system has no
    unique solution. Gauss-Jordan elimination in ``Fraction``."""
    k = len(A)
    S = np.flatnonzero(dual > 0)
    M = [[A[i % k][j] for i in S] + [Fraction(0)] for j in np.flatnonzero(np.asarray(t) > 0)]
    M.append([Fraction(int(i < k)) for i in S] + [Fraction(1)])
    for r in range(len(S)):
        p = next((i for i in range(r, len(M)) if M[i][r]), None)
        if p is None:
            return None
        M[r], M[p] = M[p], M[r]
        top = [v / M[r][r] for v in M[r]]
        M = [top if i == r else [v - row[r] * x for v, x in zip(row, top)] for i, row in enumerate(M)]
    if any(row[-1] for row in M[len(S):]):
        return None
    w = [Fraction(0)] * (2 * k)
    for i, row in zip(S, M):
        w[i] = row[-1]
    return w


@dataclass(frozen=True)
class Certificate:
    """Exact non-implementability certificate at one anchor type.

    ``min_dstar`` is :func:`curvature_check`'s D* at the optimum t* of the
    least-violation LP, which minimizes D* over every ``t >= 0`` under which
    the rule's action at the anchor is a best response there. ``certified``:
    it exceeds ``tolerance``, and so does the bound proved in rational
    arithmetic by the dual solved exactly on the support of the LP's
    ``dual`` vector (:func:`_active_set_dual`, on outcome rows that sum to
    one exactly: :func:`_exact_rows`). Otherwise ``witness`` is t* if it
    passes the check. ``lp_status`` is the solver's, or ``dual_not_exact``
    when no exact dual passes; ``infeasible`` (the action is never a best
    response there) certifies nothing.
    """

    certified: bool
    anchor: float
    min_dstar: float | None
    witness: tuple[float, ...] | None
    tolerance: float
    lp_status: str
    dual: tuple[float, ...] | None

    # the grid certificate's fields, still read by the benchmark's tracer
    box, step, consistent_profiles = (0.0, 0.0), 1.0, 0

    def to_dict(self) -> dict:
        return {**asdict(self), "grid_relative": False}


def certify_non_implementable_at(instance: Instance, rule: AllocationRule, c: float) -> Certificate:
    """Decide by LP whether any payments implement ``rule`` at ``c``.

    With a = x(c), A = F - 1 F_a and W the rule's tail effort, payments t
    under which a is a best response at c have D*(c) = max_i (A t - b)_i,
    b_i = min over the knots c' of [W(c') + gamma_i c'] - W(c) - gamma_a c.
    The LP: min s s.t. A t - s <= b, A t <= (gamma - gamma_a) c, t >= 0.
    """
    path = _ActionPath.from_rule(rule, instance)
    a = int(rule.action_at(c))
    A, d = _best_response_rows(instance, a, c)
    g, knots = instance.gamma_array(), path.knots
    b = np.min(path.tail_effort(knots) + g[:, None] * knots, axis=1) - path.tail_effort(c) - g[a] * c
    k, m = A.shape
    x, marginals, status = _linprog(np.append(np.zeros(m), 1.0),
                                    np.block([[A, -np.ones((k, 1))], [A, np.zeros((k, 1))]]), np.concatenate([b, d]), 1)
    if status != "optimal":
        return Certificate(False, float(c), None, None, CURVATURE_TOL, status, None)
    t = _payments(x[:m])
    chk = curvature_check(instance, rule, c, t)
    dual = -marginals + 0.0
    Ax = _exact_rows(instance, a)
    w = _active_set_dual(Ax, dual, t)
    bound = None if w is None else _dual_bound(Ax, b, d, w)
    return Certificate(
        certified=bool(chk.dstar > CURVATURE_TOL and bound is not None and bound > CURVATURE_TOL),
        anchor=float(c),
        min_dstar=chk.dstar,
        witness=t if chk.passed and chk.consistent else None,
        tolerance=CURVATURE_TOL,
        lp_status=status if bound is not None else "dual_not_exact",
        dual=tuple(dual.tolist()),
    )


def best_contract(instance: Instance, dist: TypeDistribution) -> tuple[float, tuple[float, ...] | None, str]:
    """The best revenue over payment profiles for a distribution of atoms,
    with its profile and the solver status.

    One min-pay LP (Grossman and Hart, 1983) per assignment of actions to
    atoms finds the cheapest ``t >= 0`` under which each atom's action is a
    weak best response, as the principal-favouring tie order allows; each
    LP's t is priced again under the tie order.
    """
    if dist.parts:
        raise ValueError("best_contract needs a distribution of atoms only")
    F = instance.prob_matrix()
    best = (-math.inf, None, "infeasible")
    for acts in product(range(instance.n + 1), repeat=len(dist.atoms)):
        rows = [_best_response_rows(instance, a, c) for (c, _), a in zip(dist.atoms, acts)]
        x, _, status = _linprog(sum(p * F[a] for (_, p), a in zip(dist.atoms, acts)),
                                np.concatenate([A for A, _ in rows]), np.concatenate([d for _, d in rows]))
        if status == "optimal":
            t = _payments(x)
            revenue = float(add_atom_revenue(0.0, instance, dist, instance.expected_payments(t)[None, :]))
            if revenue > best[0]:
                best = (revenue, t, status)
    return best


# ---------------------------------------------------------------------------
# menu contracts


@dataclass(frozen=True)
class MenuContract:
    """Finite menu of payment profiles with an interval assignment.

    ``breakpoints`` descend and tile the support like an allocation rule's;
    the profile on ``(z[k+1], z[k]]`` is ``profiles[profile_index[k]]``.
    ``u_bar`` is the utility reserved for the highest type.
    """

    profiles: tuple[PaymentProfile, ...]
    breakpoints: tuple[float, ...]
    profile_index: tuple[int, ...]
    u_bar: float = 0.0

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.profile_index) + 1:
            raise ValueError("need one profile index per breakpoint interval")
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in self.profile_index):
            raise ValueError(f"profile_index must hold integers, got {list(self.profile_index)}")
        if any(i < 0 or i >= len(self.profiles) for i in self.profile_index):
            raise ValueError("profile index out of range")
        if not all(map(is_number, self.breakpoints)):
            raise ValueError(f"breakpoints must be finite numbers, got {list(self.breakpoints)}")
        if any(not a > b for a, b in zip(self.breakpoints[:-1], self.breakpoints[1:])):
            raise ValueError(f"breakpoints must strictly descend, got {list(self.breakpoints)}")

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[-1], self.breakpoints[0]

    def profile_index_at(self, c) -> np.ndarray:
        """Index into ``profiles`` of the profile assigned to each cost
        ``c`` (clamped to the support)."""
        return np.asarray(self.profile_index)[interval_index(self.breakpoints, c)]

    def profile_at(self, c: float) -> PaymentProfile:
        return self.profiles[int(self.profile_index_at(c))]

    def to_dict(self) -> dict:
        return {
            "profiles": [list(p.payments) for p in self.profiles],
            "assignment": {
                "breakpoints": list(self.breakpoints),
                "profile_index": list(self.profile_index),
            },
            "u_bar": self.u_bar,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MenuContract":
        return cls(
            profiles=tuple(PaymentProfile(tuple(p)) for p in d["profiles"]),
            breakpoints=tuple(d["assignment"]["breakpoints"]),
            profile_index=tuple(d["assignment"]["profile_index"]),
            u_bar=float(d.get("u_bar", 0.0)),
        )


def linear_menu(instance: Instance, alpha: float, support: tuple[float, float]) -> MenuContract:
    """The single-profile menu of a linear contract."""
    return MenuContract(
        profiles=(linear_payments(instance, alpha),),
        breakpoints=(float(support[1]), float(support[0])),
        profile_index=(0,),
    )


def menu_size(contract: MenuContract) -> int:
    """Number of distinct payment profiles after rounding to 1e-9."""
    seen = {tuple(round(v / PROFILE_ROUND) for v in p.payments) for p in contract.profiles}
    return len(seen)


def menu_pieces(instance: Instance, contract: MenuContract) -> list[tuple[float, float, int, int]]:
    """Ascending ``(lo, hi, action, profile_index)`` best-response pieces."""
    out: list[tuple[float, float, int, int]] = []
    z = contract.breakpoints
    for k in range(len(contract.profile_index) - 1, -1, -1):
        lo, hi = z[k + 1], z[k]
        pidx = contract.profile_index[k]
        sub = rule_from_payments(instance, contract.profiles[pidx], (lo, hi))
        for s_lo, s_hi, action in sub.intervals():
            out.append((s_lo, s_hi, action, pidx))
    return out


def menu_path(instance: Instance, contract: MenuContract) -> _ActionPath:
    pieces = menu_pieces(instance, contract)
    knots = [pieces[0][0]] + [p[1] for p in pieces]
    return _ActionPath(knots, [p[2] for p in pieces], instance.gamma_array())


def menu_revenue(instance: Instance, dist: TypeDistribution, contract: MenuContract) -> float:
    """Expected principal utility under the contract's own assignment.

    Within each assignment interval the agent best-responds to the assigned
    profile, so the integrand is interval-wise constant and the expectation
    is a plain CDF sum; atoms are evaluated through the best response.
    """
    total = 0.0
    R = instance.expected_reward_array()
    for lo, hi, action, pidx in menu_pieces(instance, contract):
        T = instance.expected_payments(contract.profiles[pidx])
        mass = float(dist.cdf_continuous(hi)) - float(dist.cdf_continuous(lo))
        total += mass * (R[action] - float(T[action]))
    if dist.atoms:
        at_atoms = contract.profile_index_at([loc for loc, _ in dist.atoms])
        T = np.stack([instance.expected_payments(contract.profiles[p]) for p in at_atoms])
        total = add_atom_revenue(total, instance, dist, T)
    return total


@dataclass(frozen=True)
class MenuIcReport:
    """Exact summary of a menu's incentive compatibility: the worst
    selection gap and D* over every type, found at ``checked_types``
    checkpoints (:func:`_menu_checkpoints`)."""

    worst_selection_gap: float
    worst_selection_type: float
    worst_dstar: float
    worst_dstar_anchor: float
    checked_types: int
    passed: bool
    #: The rows of :func:`menu_curvature_rows`, D* at every checkpoint.
    rows: tuple[dict, ...] = field(repr=False, compare=False)


def _menu_columns(instance: Instance, contract: MenuContract) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected payment, effort and expected reward of every (action,
    profile) pair, as columns ``action * len(profiles) + profile``: the last
    column is the highest action, then the highest profile."""
    T = np.stack([instance.expected_payments(p) for p in contract.profiles], axis=1).ravel()
    P = len(contract.profiles)
    return T[None, :], np.repeat(instance.gamma_array(), P), np.repeat(instance.expected_reward_array(), P)


def _menu_checkpoints(instance: Instance, contract: MenuContract) -> tuple[np.ndarray, np.ndarray]:
    """The types where a menu's selection gap and D* can peak, and the
    profile each is checked with, ``[2, types]``.

    On an assignment interval the gap is the menu's utility envelope minus
    the assigned profile's, and D* is the menu path's effort integral minus
    the assigned profile's envelope; the path follows that profile's
    envelope between breakpoints. So both are piecewise linear in the type,
    with kinks only at breakpoints and at kinks of the menu envelope or of
    a profile's envelope, and those are the checkpoints. The intervals are
    half-open, so a breakpoint is checked with the profile of the interval
    it owns and with that of the interval above it.
    """
    T, g, R = _menu_columns(instance, contract)
    z = np.asarray(contract.breakpoints)
    kinks = [_envelope_rule_from_lines(T[0], g, R - T[0], contract.support).breakpoints,
             *(rule_from_payments(instance, p, contract.support).breakpoints for p in contract.profiles)]
    types = np.unique(np.concatenate([*kinks, z]))
    k = interval_index(z, types)
    return types, np.asarray(contract.profile_index)[np.stack([k, np.maximum(k - (types == z[k]), 0)])]


def _menu_dstar(instance: Instance, contract: MenuContract, types: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """D* at each type along the menu's induced action path, anchored on
    the payments of the profile ``assigned`` to it (an array of any shape
    that ``types`` broadcasts to)."""
    path = menu_path(instance, contract)
    types = np.broadcast_to(types, assigned.shape)
    dstar = np.empty(assigned.shape)
    for pidx in np.unique(assigned):
        at = assigned == pidx
        T = instance.expected_payments(contract.profiles[pidx])
        dstar[at] = _anchored_dstar(instance, path, T, types[at])[0]
    return dstar


def check_menu_ic(instance: Instance, contract: MenuContract) -> MenuIcReport:
    """Verify exactly that no type prefers another menu entry.

    Reports both the worst self-selection gap (utility of the best menu
    entry minus the assigned one) and the worst anchored curvature value
    along the induced action path, each the supremum over all types.
    """
    types, sides = _menu_checkpoints(instance, contract)
    utils = np.stack([_utility_envelope(instance, instance.expected_payments(p), types)
                      for p in contract.profiles], axis=1)  # (types, profiles)
    gap = (utils.max(axis=1) - utils[np.arange(len(types)), sides]).max(axis=0)
    worst_gap_k = int(np.argmax(gap))
    dstar = _menu_dstar(instance, contract, types, sides).max(axis=0)
    worst_k = int(np.argmax(dstar))
    return MenuIcReport(
        worst_selection_gap=float(gap[worst_gap_k]),
        worst_selection_type=float(types[worst_gap_k]),
        worst_dstar=float(dstar[worst_k]),
        worst_dstar_anchor=float(types[worst_k]),
        checked_types=len(types),
        passed=bool(gap[worst_gap_k] <= CURVATURE_TOL and dstar[worst_k] <= CURVATURE_TOL),
        rows=tuple({"type": c, "dstar": d, "passed": d <= CURVATURE_TOL}
                   for c, d in zip(types.tolist(), dstar.tolist())),
    )


def menu_curvature_rows(instance: Instance, contract: MenuContract) -> list[dict]:
    """D* at each of :func:`check_menu_ic`'s checkpoints, the worse of
    both sides at a breakpoint."""
    return list(check_menu_ic(instance, contract).rows)


def menu_selection(instance: Instance, contract: MenuContract, c: float) -> tuple[int, int]:
    """The (profile, action) a type picks from the whole menu, tie-broken
    like :func:`agency.instance.best_responses` over every (action, profile)
    pair: principal utility, then the higher action, then the higher profile.
    """
    T, g, R = _menu_columns(instance, contract)
    action, pidx = divmod(int(best_responses(T, c, g, R)[0]), len(contract.profiles))
    return pidx, action


def menu_induced_pieces(instance: Instance, contract: MenuContract) -> list[tuple[float, float, int]]:
    """Ascending (lo, hi, action) pieces of the menu's best responses: the
    upper envelope of the (action, profile) lines over the support.

    Parallel lines are the same action in different profiles, and only the
    best of them survives, so each action makes at most one piece.
    """
    T, g, R = _menu_columns(instance, contract)
    rule = _envelope_rule_from_lines(T[0], g, R - T[0], contract.support)
    return [(lo, hi, col // len(contract.profiles)) for lo, hi, col in rule.intervals()]


# ---------------------------------------------------------------------------
# binary-action optimal contract


def _likelihood_outcomes(instance: Instance) -> tuple[list[int], np.ndarray]:
    """Per non-null action, the outcome maximizing every likelihood ratio."""
    F = instance.prob_matrix()
    n = instance.n
    chosen: list[int] = []
    for i in range(1, n + 1):
        common: set[int] | None = None
        for other in range(1, n + 1):
            if other == i:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    F[i] > 0,
                    np.where(F[other] > 0, F[i] / np.maximum(F[other], 1e-300), np.inf),
                    -np.inf,
                )
            ratio[0] = -np.inf
            top = set(np.flatnonzero(ratio >= ratio.max() - 1e-12).tolist())
            common = top if common is None else (common & top)
        if common is None:  # single non-null action: any supported outcome
            common = set(np.flatnonzero(F[i][1:] > 0) + 1)
        common = {j for j in common if F[i][j] > 0}
        if not common:
            raise PreconditionError(f"action {i} has no likelihood-ratio maximizing outcome")
        chosen.append(max(common, key=lambda j: (F[i][j], -j)))
    return chosen, F


def binary_action_optimal(instance: Instance, dist: TypeDistribution) -> MenuContract:
    """Optimal contract for the two-non-null-action setting.

    Builds the virtual-welfare-maximizing rule, pays each recommended
    action only on its likelihood-ratio-maximizing outcome with the
    magnitude dictated by the payment identity, and verifies incentive
    compatibility exactly (:func:`check_menu_ic`) before returning.
    """
    if instance.n != 2:
        raise PreconditionError("binary-action construction needs exactly two non-null actions")
    j_star, F = _likelihood_outcomes(instance)
    j1, j2 = j_star
    q1 = F[1][j1]
    q2 = F[2][j2]
    q12 = F[1][j2]
    g = instance.gamma_array()
    if g[2] * q12 > g[1] * q2 + 1e-12:
        raise PreconditionError(
            "hazard-rent inequality violated: "
            f"gamma2*q12 = {g[2] * q12:g} exceeds gamma1*q2 = {g[1] * q2:g}"
        )

    iv = ironed(dist)
    rule = virtual_rule(instance, iv)
    path = _ActionPath.from_rule(rule, instance)
    tops = {action: hi for lo, hi, action in rule.intervals()}

    profiles: list[PaymentProfile] = []
    action_to_profile: dict[int, int] = {}
    m = instance.m
    for action, j_i, q_i in ((2, j2, q2), (1, j1, q1)):
        if action not in tops:
            continue
        c_i = tops[action]
        pay = (float(path.tail_effort(c_i)) + c_i * g[action]) / q_i
        t = [0.0] * (m + 1)
        t[j_i] = pay
        action_to_profile[action] = len(profiles)
        profiles.append(PaymentProfile(tuple(t)))
    if not profiles:
        profiles.append(PaymentProfile(tuple([0.0] * (m + 1))))

    fallback = action_to_profile.get(1, action_to_profile.get(2, 0))
    profile_index = tuple(action_to_profile.get(a, fallback) for a in rule.actions)
    contract = MenuContract(
        profiles=tuple(profiles),
        breakpoints=rule.breakpoints,
        profile_index=profile_index,
        u_bar=0.0,
    )
    report = check_menu_ic(instance, contract)
    if not report.passed:
        raise PreconditionError(
            "constructed contract failed the IC check "
            f"(selection gap {report.worst_selection_gap:g}, D* {report.worst_dstar:g})"
        )
    return contract


# ---------------------------------------------------------------------------
# binary-outcome transform


def binary_outcome_transform(
    instance: Instance,
    contract: MenuContract,
    dist: TypeDistribution | None = None,
) -> MenuContract:
    """Rewrite a binary-outcome contract to pay nothing on the null outcome.

    Types recommended the null action are moved to the free action 1 with
    an outcome-1 payment of equal expected value; all other payments keep
    their non-null coordinates. When a distribution is supplied the
    transform asserts that expected revenue weakly increases and that an
    IC contract stays IC (:func:`check_menu_ic`).
    """
    if instance.m != 2:
        raise AssumptionViolatedError("transform needs exactly two non-null outcomes")
    if abs(instance.gammas[1]) > 1e-15:
        raise AssumptionViolatedError("transform needs a free action: gamma[1] must be 0")
    F11 = instance.outcome_probs[1][1]
    if F11 <= 0:
        raise AssumptionViolatedError("action 1 must reach outcome 1 with positive probability")

    pieces = menu_pieces(instance, contract)
    new_profiles: list[PaymentProfile] = []
    keys: dict[tuple, int] = {}
    boundaries = [pieces[0][0]]
    index: list[int] = []
    for lo, hi, action, pidx in pieces:
        t = list(contract.profiles[pidx].payments)
        if action == 0:
            new_t = (0.0, t[0] / F11, 0.0)
        else:
            new_t = (0.0, t[1], t[2])
        key = tuple(round(v / PROFILE_ROUND) for v in new_t)
        if key not in keys:
            keys[key] = len(new_profiles)
            new_profiles.append(PaymentProfile(new_t))
        if index and index[-1] == keys[key]:
            boundaries[-1] = hi
        else:
            boundaries.append(hi)
            index.append(keys[key])
    transformed = MenuContract(
        profiles=tuple(new_profiles),
        breakpoints=tuple(boundaries[::-1]),
        profile_index=tuple(index[::-1]),
        u_bar=contract.u_bar,
    )
    if dist is not None:
        before = menu_revenue(instance, dist, contract)
        after = menu_revenue(instance, dist, transformed)
        if after < before - 1e-9:
            raise AssumptionViolatedError(
                f"transform lost revenue: {after:g} < {before:g}"
            )
        rep_before = check_menu_ic(instance, contract)
        rep_after = check_menu_ic(instance, transformed)
        if rep_before.passed and not rep_after.passed:
            raise AssumptionViolatedError("transform broke incentive compatibility")
    return transformed
