"""Incentive compatibility: payment identity, curvature checks, exact LPs, menus.

The implementability test for an allocation rule x anchored at type c and
payments t is that the running integral of ``gamma[x(z)] - gamma[i*(t,z)]``
from c never becomes positive. Writing W(c) for the remaining-effort
integral of the rule and U_t for the agent's utility envelope under t, the
integral from c to c' equals ``h(c) - h(c')`` with ``h = W - U_t``; both
terms are piecewise linear, so the worst deviation is found exactly at the
kinks of h. Over all payments at once, the least worst deviation and the
best contract for a distribution of atoms are small LPs (HiGHS through
``scipy.optimize``), decided for every ``t >= 0`` rather than on a grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .allocation import AllocationRule, interval_index, rule_from_payments, virtual_rule
from .instance import TIE_TOL, Instance, PaymentProfile, best_responses, linear_payments
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


def _deviation_candidates(
    instance: Instance, T: np.ndarray, path: _ActionPath
) -> np.ndarray:
    lo, hi = path.support
    g = instance.gamma_array()
    pts = list(path.knots)
    for i, j in combinations(range(len(g)), 2):
        if g[j] != g[i]:
            x = (T[i] - T[j]) / (g[i] - g[j])
            if lo < x < hi:
                pts.append(float(x))
    return np.unique(np.asarray(pts, dtype=float))


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
    tol: float = CURVATURE_TOL,
) -> CurvatureCheck:
    """Check the anchored implementability integral for payments ``t_c``.

    The worst value D* of the integral over all deviation types is located
    exactly on the merged kink set of the rule and the payment envelope;
    the check passes when D* stays within ``tol``.
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
        passed=bool(dstar <= tol),
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# exact LPs: non-implementability certificates and best contracts


def _linprog(cost, A_ub, b_ub, bounds):
    """HiGHS and its status name (``scipy.optimize`` is imported here only:
    the import alone takes longer than importing ``agency``)."""
    from scipy.optimize import linprog

    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return res, ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical_difficulties")[res.status]


def _payments(x: np.ndarray) -> tuple[float, ...]:
    return tuple(float(v) + 0.0 for v in np.maximum(x, 0.0))  # an LP's t, clipped, without -0.0


def _best_response_rows(instance: Instance, a: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``(A, d)`` with ``A t <= d`` iff action ``a`` is a best response at
    cost ``c`` to payments ``t``: ``A = F - 1 F_a``, ``d = (gamma - gamma_a) c``."""
    F, g = instance.prob_matrix(), instance.gamma_array()
    return F - F[a], (g - g[a]) * c


def _dual_bound(A: np.ndarray, b: np.ndarray, d: np.ndarray, w: list[Fraction]) -> Fraction | None:
    """A lower bound on s over ``A t - s <= b, A t <= d, t >= 0``, proved by
    the dual vector ``w = (y, z)`` in exact arithmetic on the float inputs,
    or None when ``w`` is not dual feasible there. For ``y, z >= 0`` with
    ``A^T (y + z) >= 0``: ``s sum(y) >= y.(A t - b) >= -y.b - z.d``."""
    y, z = w[: len(b)], w[len(b):]
    u = [yi + zi for yi, zi in zip(y, z)]
    if min(w) < 0 or sum(y) <= 0 or any(sum(ui * Fraction(aij) for ui, aij in zip(u, col)) < 0 for col in A.T):
        return None
    return -(sum(yi * Fraction(bi) for yi, bi in zip(y, b)) + sum(zi * Fraction(di) for zi, di in zip(z, d))) / sum(y)


@dataclass(frozen=True)
class Certificate:
    """Exact non-implementability certificate at one anchor type.

    ``min_dstar`` is :func:`curvature_check`'s D* at the optimum t* of the
    least-violation LP, which minimizes D* over every ``t >= 0`` under which
    the rule's action at the anchor is a best response there. ``certified``:
    it exceeds ``tolerance``, and so does the bound that the LP's ``dual``
    vector proves when rechecked in rational arithmetic. Otherwise
    ``witness`` is t* if it passes the check. ``lp_status`` is the solver's,
    or ``dual_not_exact`` when the recheck fails; ``infeasible`` (the action
    is never a best response there) certifies nothing.
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


def certify_non_implementable_at(
    instance: Instance, rule: AllocationRule, c: float, tol: float = CURVATURE_TOL
) -> Certificate:
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
    res, status = _linprog(np.append(np.zeros(m), 1.0), np.block([[A, -np.ones((k, 1))], [A, np.zeros((k, 1))]]),
                           np.concatenate([b, d]), [(0.0, None)] * m + [(None, None)])
    if res.status != 0:
        return Certificate(False, float(c), None, None, tol, status, None)
    t = _payments(res.x[:m])
    chk = curvature_check(instance, rule, c, t)
    dual = -res.ineqlin.marginals + 0.0
    # the dual as solved, and rounded to the small denominators that a vertex
    # of an LP with short-decimal data usually has
    w = [Fraction(v) for v in dual]
    bounds = [_dual_bound(A, b, d, w), _dual_bound(A, b, d, [v.limit_denominator(1 << 20) for v in w])]
    bound = max((v for v in bounds if v is not None), default=None)
    return Certificate(
        certified=bool(chk.dstar > tol and bound is not None and bound > tol),
        anchor=float(c),
        min_dstar=chk.dstar,
        witness=t if chk.passed and chk.consistent else None,
        tolerance=tol,
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
        res, status = _linprog(sum(p * F[a] for (_, p), a in zip(dist.atoms, acts)),
                               np.concatenate([A for A, _ in rows]), np.concatenate([d for _, d in rows]), (0.0, None))
        if res.status == 0:
            t = _payments(res.x)
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
        if any(i < 0 or i >= len(self.profiles) for i in self.profile_index):
            raise ValueError("profile index out of range")
        if any(a <= b for a, b in zip(self.breakpoints[:-1], self.breakpoints[1:])):
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
    """Grid summary of a menu's incentive compatibility."""

    worst_selection_gap: float
    worst_selection_type: float
    worst_dstar: float
    worst_dstar_anchor: float
    checked_types: int
    passed: bool


def _menu_dstar(instance: Instance, contract: MenuContract, grid: np.ndarray) -> np.ndarray:
    """D* at each grid type along the menu's induced action path, anchored
    on the payments the type is assigned."""
    path = menu_path(instance, contract)
    assigned = contract.profile_index_at(grid)
    dstar = np.empty(len(grid))
    for pidx in np.unique(assigned):
        at = assigned == pidx
        T = instance.expected_payments(contract.profiles[pidx])
        dstar[at] = _anchored_dstar(instance, path, T, grid[at])[0]
    return dstar


def check_menu_ic(
    instance: Instance,
    contract: MenuContract,
    grid_points: int = 1000,
    tol: float = CURVATURE_TOL,
) -> MenuIcReport:
    """Verify, on a type grid, that no type prefers another menu entry.

    Reports both the worst self-selection gap (utility of the best menu
    entry minus the assigned one) and the worst anchored curvature value
    along the induced action path.
    """
    lo, hi = contract.support
    grid = np.unique(np.concatenate([np.linspace(lo, hi, grid_points), contract.breakpoints]))
    utils = np.stack([_utility_envelope(instance, instance.expected_payments(p), grid)
                      for p in contract.profiles], axis=1)  # (grid, profiles)
    gap = utils.max(axis=1) - utils[np.arange(len(grid)), contract.profile_index_at(grid)]
    worst_gap_k = int(np.argmax(gap))
    dstar = _menu_dstar(instance, contract, grid)
    worst_k = int(np.argmax(dstar))
    return MenuIcReport(
        worst_selection_gap=float(gap[worst_gap_k]),
        worst_selection_type=float(grid[worst_gap_k]),
        worst_dstar=float(dstar[worst_k]),
        worst_dstar_anchor=float(grid[worst_k]),
        checked_types=len(grid),
        passed=bool(gap[worst_gap_k] <= tol and dstar[worst_k] <= tol),
    )


def menu_curvature_rows(
    instance: Instance,
    contract: MenuContract,
    grid_points: int = 1000,
    tol: float = CURVATURE_TOL,
) -> list[dict]:
    """Per-type curvature summary along the menu's induced action path."""
    lo, hi = contract.support
    grid = np.linspace(lo, hi, grid_points)
    dstar = _menu_dstar(instance, contract, grid)
    return [{"type": float(c), "dstar": float(d), "passed": bool(d <= tol)} for c, d in zip(grid, dstar)]


def _menu_columns(instance: Instance, contract: MenuContract) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected payment, effort and expected reward of every (action,
    profile) pair, as columns ``action * len(profiles) + profile``: the last
    column is the highest action, then the highest profile."""
    T = np.stack([instance.expected_payments(p) for p in contract.profiles], axis=1).ravel()
    P = len(contract.profiles)
    return T[None, :], np.repeat(instance.gamma_array(), P), np.repeat(instance.expected_reward_array(), P)


def menu_selection(instance: Instance, contract: MenuContract, c: float) -> tuple[int, int]:
    """The (profile, action) a type picks from the whole menu, tie-broken
    like :func:`agency.instance.best_responses` over every (action, profile)
    pair: principal utility, then the higher action, then the higher profile.
    """
    T, g, R = _menu_columns(instance, contract)
    action, pidx = divmod(int(best_responses(T, c, g, R)[0]), len(contract.profiles))
    return pidx, action


def menu_induced_pieces(
    instance: Instance,
    contract: MenuContract,
    grid_points: int = 1000,
    refine_tol: float = 1e-12,
) -> list[tuple[float, float, int]]:
    """Ascending (lo, hi, action) pieces of the menu's grid best responses.

    Action switches located on the grid are refined by bisection, so the
    returned boundaries are sharp wherever the selection is monotone.
    """
    lo, hi = contract.support
    grid = np.unique(np.concatenate([np.linspace(lo, hi, grid_points), contract.breakpoints]))
    T, g, R = _menu_columns(instance, contract)
    P = len(contract.profiles)
    acts = best_responses(T, grid, g, R) // P
    pieces: list[tuple[float, float, int]] = []
    start = grid[0]
    for k in range(1, len(grid)):
        if acts[k] != acts[k - 1]:
            a_lo, a_hi = grid[k - 1], grid[k]
            left_action = acts[k - 1]
            while a_hi - a_lo > refine_tol * max(1.0, abs(a_hi)):
                mid = 0.5 * (a_lo + a_hi)
                if best_responses(T, mid, g, R)[0] // P == left_action:
                    a_lo = mid
                else:
                    a_hi = mid
            pieces.append((float(start), float(a_hi), int(left_action)))
            start = a_hi
    pieces.append((float(start), float(grid[-1]), int(acts[-1])))
    return pieces


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


def binary_action_optimal(
    instance: Instance,
    dist: TypeDistribution,
    grid_points: int = 1000,
    tol: float = CURVATURE_TOL,
) -> MenuContract:
    """Optimal contract for the two-non-null-action setting.

    Builds the virtual-welfare-maximizing rule, pays each recommended
    action only on its likelihood-ratio-maximizing outcome with the
    magnitude dictated by the payment identity, and verifies incentive
    compatibility on a type grid before returning.
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
    report = check_menu_ic(instance, contract, grid_points=grid_points, tol=tol)
    if not report.passed:
        raise PreconditionError(
            "constructed contract failed the grid IC check "
            f"(selection gap {report.worst_selection_gap:g}, D* {report.worst_dstar:g})"
        )
    return contract


# ---------------------------------------------------------------------------
# binary-outcome transform


def binary_outcome_transform(
    instance: Instance,
    contract: MenuContract,
    dist: TypeDistribution | None = None,
    grid_points: int = 1000,
) -> MenuContract:
    """Rewrite a binary-outcome contract to pay nothing on the null outcome.

    Types recommended the null action are moved to the free action 1 with
    an outcome-1 payment of equal expected value; all other payments keep
    their non-null coordinates. When a distribution is supplied the
    transform asserts that expected revenue weakly increases and that the
    grid IC check still passes.
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
        rep_before = check_menu_ic(instance, contract, grid_points=grid_points)
        rep_after = check_menu_ic(instance, transformed, grid_points=grid_points)
        if rep_before.passed and not rep_after.passed:
            raise AssumptionViolatedError("transform broke incentive compatibility")
    return transformed
