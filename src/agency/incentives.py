"""Incentive compatibility: payment identity, curvature checks, menus.

The implementability test for an allocation rule x anchored at type c and
payments t is that the running integral of ``gamma[x(z)] - gamma[i*(t,z)]``
from c never becomes positive. Writing W(c) for the remaining-effort
integral of the rule and U_t for the agent's utility envelope under t, the
integral from c to c' equals ``h(c) - h(c')`` with ``h = W - U_t``; both
terms are piecewise linear, so the worst deviation is found exactly at the
kinks of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
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
# non-implementability certificates


@dataclass(frozen=True)
class Certificate:
    """Grid-relative non-implementability certificate at one anchor type.

    ``certified`` means every grid payment profile consistent with the
    rule's action at the anchor fails the curvature check. The statement is
    relative to the searched box and step, which are recorded.
    """

    certified: bool
    anchor: float
    box: tuple[float, float]
    step: float
    consistent_profiles: int
    min_dstar: float | None
    witness: tuple[float, ...] | None
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "anchor": self.anchor,
            "box": list(self.box),
            "step": self.step,
            "consistent_profiles": self.consistent_profiles,
            "min_dstar": self.min_dstar,
            "witness": list(self.witness) if self.witness else None,
            "tolerance": self.tolerance,
            "grid_relative": True,
        }


def certify_non_implementable_at(
    instance: Instance,
    rule: AllocationRule,
    c: float,
    payment_box: tuple[float, float] | None = None,
    step: float | None = None,
    tol: float = CURVATURE_TOL,
    chunk: int = 100_000,
) -> Certificate:
    """Exhaustive grid search for payments implementing ``rule`` at ``c``.

    Enumerates all payment profiles on the grid; a profile is consistent
    when the rule's action at the anchor is (within tie tolerance) a best
    response. The null-outcome payment only enters the agent's utility
    through the null action, which lets that axis be handled in closed form
    against the remaining coordinates.
    """
    max_r = max(instance.rewards)
    lo_box, hi_box = payment_box if payment_box is not None else (0.0, 4.0 * max_r)
    if step is None:
        step = max_r / 600.0
    if step <= 0 or hi_box <= lo_box:
        raise ValueError("need a positive step and a non-empty payment box")

    g = instance.gamma_array()
    F = instance.prob_matrix()
    m1 = instance.m  # coordinates 1..m enumerated, coordinate 0 analytic
    axis = np.arange(lo_box, hi_box + step / 2.0, step)
    t0_axis = axis
    anchor_action = int(rule.action_at(c))
    path = _ActionPath.from_rule(rule, instance)
    lo_s, hi_s = path.support
    wc = float(path.tail_effort(c))
    knots = path.knots
    w_knots = np.asarray([path.tail_effort(k) for k in knots])

    n_consistent = 0
    min_dstar = math.inf
    witness: tuple[float, ...] | None = None
    certified = True

    mesh_shape = (len(axis),) * m1
    total = len(axis) ** m1
    non_null = np.arange(1, instance.n + 1)
    pairs = list(combinations(non_null.tolist(), 2))

    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.stack(np.unravel_index(idx, mesh_shape), axis=1)  # (B, m1)
        t_rest = axis[coords]  # payments on outcomes 1..m
        T1 = t_rest @ F[1:, 1:].T  # (B, n) expected payments, actions >= 1

        util_anchor = T1 - g[1:][None, :] * c  # (B, n)
        u1c = util_anchor.max(axis=1)
        if anchor_action >= 1:
            ua = util_anchor[:, anchor_action - 1]
            mask = ua >= u1c - TIE_TOL  # best among non-null actions
            t0_cap = ua + TIE_TOL  # null action must not beat the anchor
        else:
            ua = None
            mask = np.full(len(idx), True)
            t0_cap = np.full(len(idx), hi_box)  # any t0 >= u1c - TIE_TOL
        if not mask.any():
            continue
        T1m = T1[mask]
        sel = np.flatnonzero(mask)

        # h = W - U over the non-null envelope, minimized over its kinks
        min_a = np.full(len(T1m), math.inf)
        for kx, wv in zip(knots, w_knots):
            u1 = (T1m - g[1:][None, :] * kx).max(axis=1)
            min_a = np.minimum(min_a, wv - u1)
        for i, j in pairs:
            dg = g[j] - g[i]
            cross = (T1m[:, j - 1] - T1m[:, i - 1]) / dg
            cross = np.clip(cross, lo_s, hi_s)
            u1 = (T1m - g[1:][None, :] * cross[:, None]).max(axis=1)
            min_a = np.minimum(min_a, np.interp(cross, knots, w_knots) - u1)

        u1_anchor = (T1m - g[1:][None, :] * c).max(axis=1)
        hca = wc - u1_anchor

        if anchor_action >= 1:
            cap = t0_cap[sel]
            t0_lo = np.zeros(len(T1m))
        else:
            cap = np.full(len(T1m), hi_box)
            t0_lo = np.maximum(0.0, u1_anchor - TIE_TOL)
        cap = np.minimum(cap, hi_box)
        lo_idx = np.ceil((t0_lo - lo_box) / step - 1e-9).astype(int)
        hi_idx = np.floor((cap - lo_box) / step + 1e-9).astype(int)
        hi_idx = np.minimum(hi_idx, len(t0_axis) - 1)
        ok = hi_idx >= np.maximum(lo_idx, 0)
        if not ok.any():
            continue

        # D*(t0) = min(hca, wc - t0) - min(min_a, -t0) is piecewise linear in
        # t0; its minimum over the t0 grid sits next to a kink or range end
        kink1 = wc - hca
        kink2 = -min_a
        cand_list = [t0_lo, cap]
        for kk in (np.full(len(T1m), kink1) if np.isscalar(kink1) else kink1, kink2):
            kidx = (kk - lo_box) / step
            for shift in (np.floor(kidx), np.ceil(kidx)):
                cand_list.append(lo_box + np.clip(shift, lo_idx, hi_idx) * step)
        cand = np.stack(
            [lo_box + np.clip(np.round((cc - lo_box) / step), np.maximum(lo_idx, 0), hi_idx) * step for cc in cand_list],
            axis=1,
        )
        d = np.minimum(hca[:, None], wc - cand) - np.minimum(min_a[:, None], -cand)
        d_min = d.min(axis=1)
        counts = np.where(ok, hi_idx - np.maximum(lo_idx, 0) + 1, 0)
        n_consistent += int(counts.sum())
        d_ok = d_min[ok]
        if len(d_ok):
            if float(d_ok.min()) < min_dstar:
                min_dstar = float(d_ok.min())
            passing = np.flatnonzero(ok & (d_min <= tol))
            if len(passing) and certified:
                certified = False
                p = int(passing[0])
                row = int(sel[p])
                best_t0_col = int(np.argmin(d[p]))
                t0_val = float(cand[p, best_t0_col])
                witness = (t0_val, *[float(v) for v in t_rest[row]])

    return Certificate(
        certified=certified and n_consistent > 0,
        anchor=float(c),
        box=(float(lo_box), float(hi_box)),
        step=float(step),
        consistent_profiles=n_consistent,
        min_dstar=None if math.isinf(min_dstar) else float(min_dstar),
        witness=witness,
        tolerance=tol,
    )


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
