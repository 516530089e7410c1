"""Brute-force grid oracles for the exact certificate and audit LPs.

Both enumerate payment profiles on a box with a fixed step, so their
statements hold relative to that grid only. The tests compare the LPs in
``agency`` against them: the LPs search every ``t >= 0``, so they must find
at least as good a profile as the grid, and equal values where the grid
contains an optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from agency.allocation import AllocationRule
from agency.incentives import CURVATURE_TOL, _ActionPath
from agency.instance import TIE_TOL, Instance, best_responses


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
