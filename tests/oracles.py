"""Reference implementations the tests compare ``agency`` against.

Brute-force grid oracles for the exact certificate and audit LPs: both
enumerate payment profiles on a box with a fixed step, so their statements
hold relative to that grid only. The LPs in ``agency`` search every
``t >= 0``, so they must find at least as good a profile as the grid, and
equal values where the grid contains an optimum. Likewise the type-grid
menu IC check: the exact check's worst values are suprema over every type,
so they are at least the grid's.

Every pairwise crossing of a set of lines, a superset of their upper
envelope's breakpoints: the welfare crossings and the menu checkpoints
taken from them, which the envelope kinks must match with fewer points.

Sequential searches, one step per call: the bisections behind
``IronedVirtualCost.inverse`` and ``TypeDistribution.quantile``, and the
bisection kernel on any function, where the batched searches must return
the same bits; and a golden-section polish of ``best_linear``'s scan
bracket, which its refinement of that scan must match or beat.

HiGHS through ``scipy.optimize`` behind the certificate and audit LPs: the
package's own simplex must reach the same statuses and optimal values.

Exact-rational revenue on the exact route (an atom-free mixture of uniform
and piecewise parts): every float input is exactly a ``Fraction``, G is
piecewise linear in them, and the welfare envelope is built from exact
lines. So the revenue of a share, and the revenue-maximizing share, have
exact values that the float closed forms must match to rounding.

The lower convex hull behind the grid route of ``iron`` as a plain monotone
chain on numpy arrays, and the flats built from it pair by pair: the
package's chain on Python floats, and the flats built in one array pass,
must return the same indices and the same tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from agency.allocation import AllocationRule, interval_index
from agency.incentives import (
    CURVATURE_TOL,
    MenuContract,
    MenuIcReport,
    _ActionPath,
    _anchored_dstar,
    _menu_columns,
    _utility_envelope,
    menu_path,
)
from agency.instance import TIE_TOL, Instance, best_responses
from agency.typedist import IronedVirtualCost, TypeDistribution, UniformPart, _exact


@dataclass(frozen=True)
class GridCertificate:
    certified: bool
    box: tuple[float, float]
    step: float
    consistent_profiles: int
    min_dstar: float | None
    witness: tuple[float, ...] | None


def grid_certificate(
    instance: Instance,
    rule: AllocationRule,
    c: float,
    payment_box: tuple[float, float] | None = None,
    step: float | None = None,
    tol: float = CURVATURE_TOL,
    chunk: int = 100_000,
) -> GridCertificate:
    """Exhaustive grid search for payments implementing ``rule`` at ``c``.

    Enumerates all payment profiles on the grid; a profile is consistent
    when the rule's action at the anchor is (within tie tolerance) a best
    response. The null-outcome payment only enters the agent's utility
    through the null action, which lets that axis be handled in closed form
    against the remaining coordinates. ``certified`` means every consistent
    grid profile fails the curvature check and there is at least one.
    """
    max_r = max(instance.rewards)
    lo_box, hi_box = payment_box if payment_box is not None else (0.0, 4.0 * max_r)
    if step is None:
        step = max_r / 600.0

    g = instance.gamma_array()
    F = instance.prob_matrix()
    m1 = instance.m  # coordinates 1..m enumerated, coordinate 0 analytic
    axis = np.arange(lo_box, hi_box + step / 2.0, step)
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
    pairs = list(combinations(range(1, instance.n + 1), 2))

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
            cross = (T1m[:, j - 1] - T1m[:, i - 1]) / (g[j] - g[i])
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
        hi_idx = np.minimum(hi_idx, len(axis) - 1)
        ok = hi_idx >= np.maximum(lo_idx, 0)
        if not ok.any():
            continue

        # D*(t0) = min(hca, wc - t0) - min(min_a, -t0) is piecewise linear in
        # t0; its minimum over the t0 grid sits next to a kink or range end
        cand_list = [t0_lo, cap]
        for kk in (wc - hca, -min_a):
            kidx = (kk - lo_box) / step
            for shift in (np.floor(kidx), np.ceil(kidx)):
                cand_list.append(lo_box + np.clip(shift, lo_idx, hi_idx) * step)
        cand = np.stack(
            [lo_box + np.clip(np.round((cc - lo_box) / step), np.maximum(lo_idx, 0), hi_idx) * step
             for cc in cand_list],
            axis=1,
        )
        d = np.minimum(hca[:, None], wc - cand) - np.minimum(min_a[:, None], -cand)
        d_min = d.min(axis=1)
        counts = np.where(ok, hi_idx - np.maximum(lo_idx, 0) + 1, 0)
        n_consistent += int(counts.sum())
        d_ok = d_min[ok]
        if len(d_ok):
            min_dstar = min(min_dstar, float(d_ok.min()))
            passing = np.flatnonzero(ok & (d_min <= tol))
            if len(passing) and certified:
                certified = False
                p = int(passing[0])
                t0_val = float(cand[p, int(np.argmin(d[p]))])
                witness = (t0_val, *[float(v) for v in t_rest[int(sel[p])]])

    return GridCertificate(
        certified=certified and n_consistent > 0,
        box=(float(lo_box), float(hi_box)),
        step=float(step),
        consistent_profiles=n_consistent,
        min_dstar=None if math.isinf(min_dstar) else float(min_dstar),
        witness=witness,
    )


def grid_best_contract(
    instance: Instance,
    atoms,
    box: tuple[float, float],
    step: float,
    chunk: int = 400_000,
) -> tuple[float, tuple[float, ...]]:
    """Best revenue over grid payment profiles for types at ``atoms``
    (``(cost, mass)`` pairs), each type answering by the tie order, and the
    first profile reaching it. The null-outcome payment is pinned to zero.
    """
    F = instance.prob_matrix()
    g = instance.gamma_array()
    R = instance.expected_reward_array()
    axis = np.arange(box[0], box[1] + step / 2.0, step)
    m = instance.m
    total = len(axis) ** m
    best_rev = -math.inf
    best_t = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.stack(np.unravel_index(idx, (len(axis),) * m), axis=1)
        t_rest = axis[coords]  # payments on outcomes 1..m
        T = t_rest @ F[:, 1:].T  # (B, K); null-outcome payment is zero
        rows = np.arange(len(idx))
        rev = 0.0
        for c, mass in atoms:
            a = best_responses(T, c, g, R)
            rev = rev + mass * (R[a] - T[rows, a])
        k = int(np.argmax(rev))
        if float(rev[k]) > best_rev:
            best_rev = float(rev[k])
            best_t = (0.0, *[float(v) for v in t_rest[k]])
    return best_rev, best_t


def highs_linprog(cost, A_ub, b_ub, bounds):
    """HiGHS and its status name (``scipy.optimize`` is imported here only:
    the import alone takes longer than importing ``agency``).

    HiGHS's presolve reports some feasible, unbounded LPs as infeasible, and
    turning presolve off trades that for numerical difficulties. So an
    infeasible verdict stands only if the zero-cost LP over the same rows is
    infeasible too; when that LP is feasible, the status is ``unbounded``."""
    from scipy.optimize import linprog

    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    status = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical_difficulties")[res.status]
    if status == "infeasible" and linprog(np.zeros(len(cost)), A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                                          method="highs").status == 0:
        status = "unbounded"
    return res, status


def grid_menu_ic(
    instance: Instance,
    contract: MenuContract,
    grid_points: int = 1000,
    tol: float = CURVATURE_TOL,
) -> MenuIcReport:
    """The menu IC check on a type grid: ``grid_points`` evenly spaced types
    plus the breakpoints, each checked with the profile assigned to it."""
    lo, hi = contract.support
    grid = np.unique(np.concatenate([np.linspace(lo, hi, grid_points), contract.breakpoints]))
    utils = np.stack([_utility_envelope(instance, instance.expected_payments(p), grid)
                      for p in contract.profiles], axis=1)  # (grid, profiles)
    gap = utils.max(axis=1) - utils[np.arange(len(grid)), contract.profile_index_at(grid)]
    worst_gap_k = int(np.argmax(gap))
    path = menu_path(instance, contract)
    assigned = contract.profile_index_at(grid)
    dstar = np.empty(len(grid))
    for pidx in np.unique(assigned):
        at = assigned == pidx
        T = instance.expected_payments(contract.profiles[pidx])
        dstar[at] = _anchored_dstar(instance, path, T, grid[at])[0]
    worst_k = int(np.argmax(dstar))
    return MenuIcReport(
        worst_selection_gap=float(gap[worst_gap_k]),
        worst_selection_type=float(grid[worst_gap_k]),
        worst_dstar=float(dstar[worst_k]),
        worst_dstar_anchor=float(grid[worst_k]),
        checked_types=len(grid),
        passed=bool(gap[worst_gap_k] <= tol and dstar[worst_k] <= tol),
        rows=tuple({"type": float(c), "dstar": float(d), "passed": bool(d <= tol)} for c, d in zip(grid, dstar)),
    )


def pairwise_crossings(T: np.ndarray, g: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Costs strictly inside ``(lo, hi)`` where two lines ``T[i] - g[i] * c``
    of different slopes cross, pairs taken in the order ``i < j``."""
    i, j = np.triu_indices(len(g), 1)
    i, j = i[g[i] != g[j]], j[g[i] != g[j]]
    x = (T[i] - T[j]) / (g[i] - g[j])
    return x[(lo < x) & (x < hi)]


def welfare_crossings(instance: Instance) -> list[float]:
    """Every pairwise welfare crossing at a positive cost, ascending."""
    return np.unique(pairwise_crossings(instance.expected_reward_array(), instance.gamma_array(), 0.0, np.inf)).tolist()


def pairwise_deviation_candidates(instance: Instance, T: np.ndarray, path: _ActionPath) -> np.ndarray:
    """``incentives._deviation_candidates`` from every crossing of two lines
    ``T - gamma * c`` on the path's support instead of the envelope's kinks."""
    return np.unique(np.concatenate([path.knots, pairwise_crossings(T, instance.gamma_array(), *path.support)]))


def pairwise_menu_checkpoints(instance: Instance, contract: MenuContract) -> tuple[np.ndarray, np.ndarray]:
    """A menu's IC checkpoints as every crossing of two (action, profile)
    lines inside the support plus every breakpoint, with the same profiles
    as ``incentives._menu_checkpoints``: a breakpoint with the profile of
    the interval it owns and with that of the interval above it."""
    T, g, _ = _menu_columns(instance, contract)
    z = np.asarray(contract.breakpoints)
    types = np.unique(np.concatenate([pairwise_crossings(T[0], g, *contract.support), z]))
    k = interval_index(z, types)
    return types, np.asarray(contract.profile_index)[np.stack([k, np.maximum(k - (types == z[k]), 0)])]


def bisect_one_round_per_call(iv: IronedVirtualCost, qa: np.ndarray) -> np.ndarray:
    """``iv.inverse`` at each level of ``qa``, by one bisection on all levels
    together with one ``value`` call per round; each level stops once its
    bracket closes."""
    lo = np.full(qa.shape, iv.c_low)
    hi = np.full(qa.shape, iv.c_high)
    below = qa < float(iv.value(iv.c_low))
    above = qa >= float(iv.value(iv.c_high))
    live = np.flatnonzero(~(below | above))
    for _ in range(200):
        if not len(live):
            break
        mid = 0.5 * (lo[live] + hi[live])
        left = iv.value(mid) <= qa[live]
        lo[live[left]] = mid[left]
        hi[live[~left]] = mid[~left]
        live = live[hi[live] - lo[live] > 1e-15 * np.maximum(1.0, np.abs(hi[live]))]
    # a bracket this tight that still contains a density kink means the
    # ironed virtual cost jumps across q there; the supremum is the kink
    kinks = np.asarray(iv.dist.kinks())
    bracketed = (lo[:, None] <= kinks) & (kinks <= hi[:, None])
    out = np.where(bracketed.any(axis=1), kinks[bracketed.argmax(axis=1)], lo)
    return np.where(below, iv.c_low, np.where(above, iv.c_high, out))


def bisect_brackets_one_round_per_call(f, q: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of bisecting ``[lo, hi]`` for each level of ``q`` with one
    ``f`` call per round: a round raises lo to its midpoint m where ``f(m) <=
    q``, else lowers hi to m; each level stops once its bracket closes, all
    after 200 rounds."""
    lo, hi = np.full(len(q), lo), np.full(len(q), hi)
    live = np.arange(len(q))
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        left = f(mid) <= q[live]
        lo[live[left]] = mid[left]
        hi[live[~left]] = mid[~left]
        live = live[hi[live] - lo[live] > 1e-15 * np.maximum(1.0, np.abs(hi[live]))]
    return lo, hi


def quantile_one_round_per_call(dist: TypeDistribution, q: float) -> float:
    """``dist.quantile(q)``, bisecting with one scalar ``cdf`` call per round."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must be in [0, 1]")
    if q == 0.0:
        return dist.c_low
    if len(dist.parts) == 1 and not dist.atoms:
        return dist.parts[0][1].quantile(q)
    lo = dist.c_low
    hi = dist.c_high
    if math.isinf(hi):
        hi = max((p.quantile(min(q + (1 - q) / 2, 1 - 1e-15)) if math.isinf(p.support()[1]) else p.support()[1])
                 for _, p in dist.parts)
        hi = max(hi, lo + 1.0)
        while float(dist.cdf(hi)) < q and math.isfinite(hi):
            hi *= 2.0
    if float(dist.cdf(hi)) < q:
        return math.inf
    if float(dist.cdf(lo)) >= q:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(dist.cdf(mid)) >= q:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    for a, _ in dist.atoms:
        if abs(hi - a) <= 1e-9 * max(1.0, abs(a)) and float(dist.cdf_left(a)) < q <= float(dist.cdf(a)):
            return a
    return hi


def golden_section_one_step_per_call(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] with one scalar ``f`` call
    per step; returns (argmax, value)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        x, v = (c, fc) if fc >= fd else (d, fd)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def monotone_chain_hull(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the lower convex hull vertices via a monotone chain."""
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def hull_flats(grid: np.ndarray, G: np.ndarray, cG: np.ndarray, hull: list[int]) -> tuple:
    """``(lo, hi, level)`` of every hull edge that skips grid points and
    carries mass, one edge at a time."""
    return tuple(
        (float(grid[a]), float(grid[b]), float((cG[b] - cG[a]) / (G[b] - G[a])))
        for a, b in zip(hull[:-1], hull[1:])
        if b > a + 1 and G[b] > G[a]
    )


def exact_envelope(instance: Instance) -> list[tuple[int, Fraction, Fraction | None]]:
    """``(action, start, end)`` pieces of the welfare envelope over costs
    ``c >= 0``, ascending, from the exact lines ``R_i - gamma_i c`` of the
    float expected rewards and efforts; the last piece has no end. From the
    current action, the next is the one of lower effort whose line crosses
    first, the lowest effort on ties."""
    R = [Fraction(float(r)) for r in instance.expected_reward_array()]
    g = [Fraction(float(v)) for v in instance.gamma_array()]
    a = min(range(len(R)), key=lambda i: (-R[i], g[i]))
    pieces, start = [], Fraction(0)
    while True:
        later = [((R[a] - R[j]) / (g[a] - g[j]), g[j], j) for j in range(len(R)) if g[j] < g[a]]
        if not later:
            pieces.append((a, start, None))
            return pieces
        cross, _, nxt = min(later)
        pieces.append((a, start, cross))
        a, start = nxt, cross


def exact_cdf(dist: TypeDistribution):
    """G of an exact-route distribution as a function of a ``Fraction`` cost,
    exact on its float parameters; each part's CDF is clipped to [0, 1], as
    the float parts clip theirs."""
    assert _exact(dist)
    parts = []
    for w, p in dist.parts:
        if isinstance(p, UniformPart):
            bounds, dens = (p.low, p.high), (1 / (Fraction(p.high) - Fraction(p.low)),)
        else:
            bounds, dens = p.bounds, p.densities
        parts.append((Fraction(w), [Fraction(b) for b in bounds], [Fraction(d) for d in dens]))

    def G(c: Fraction) -> Fraction:
        total = Fraction(0)
        for w, bounds, dens in parts:
            mass = Fraction(0)
            for b0, b1, d in zip(bounds[:-1], bounds[1:], dens):
                mass += d * (min(max(c, b0), b1) - b0)
            total += w * min(max(mass, Fraction(0)), Fraction(1))
        return total

    return G


def _exact_scaled_sum(instance: Instance, dist: TypeDistribution, G, pieces, a: Fraction) -> Fraction:
    """``S(a)``: each piece's expected reward times the mass of the types
    whose best response to share ``a`` it is, the piece scaled by ``a``."""
    R = [Fraction(float(r)) for r in instance.expected_reward_array()]
    lo, hi = Fraction(dist.c_low), Fraction(dist.c_high)
    total = Fraction(0)
    for action, start, end in pieces:
        l = min(max(a * start, lo), hi)
        h = hi if end is None else min(max(a * end, lo), hi)
        total += R[action] * (G(h) - G(l))
    return total


def exact_revenue(instance: Instance, dist: TypeDistribution, alpha: float) -> Fraction:
    """Exact revenue ``(1 - a) S(a)`` of the linear contract with share ``alpha``."""
    a = Fraction(float(alpha))
    return (1 - a) * _exact_scaled_sum(instance, dist, exact_cdf(dist), exact_envelope(instance), a)


def exact_best_linear(instance: Instance, dist: TypeDistribution) -> tuple[Fraction, Fraction]:
    """Exact revenue-maximizing share and revenue, the lowest share on ties.

    S is linear between 0, 1 and the exact ratios q/z of a support end or
    kink q to an envelope crossing z, so on each cell the revenue
    ``(1 - a)(p + q a)`` peaks at an end or at its vertex ``(q - p)/(2q)``.
    """
    G, pieces = exact_cdf(dist), exact_envelope(instance)
    landmarks = {Fraction(k) for k in (dist.c_low, dist.c_high, *dist.kinks())}
    ratios = {q / z for q in landmarks for _, z, _ in pieces[1:] if z > 0 and 0 < q / z < 1}
    ends = sorted({Fraction(0), Fraction(1), *ratios})
    S = {a: _exact_scaled_sum(instance, dist, G, pieces, a) for a in ends}
    candidates = list(ends)
    for a, b in zip(ends[:-1], ends[1:]):
        q = (S[b] - S[a]) / (b - a)
        p = S[a] - q * a
        if q > 0 and a < (q - p) / (2 * q) < b:
            candidates.append((q - p) / (2 * q))
    revenue = {a: (1 - a) * (S[a] if a in S else _exact_scaled_sum(instance, dist, G, pieces, a)) for a in candidates}
    best = max(revenue.values())
    return min(a for a, v in revenue.items() if v == best), best
