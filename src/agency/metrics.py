"""Revenue, welfare, and virtual-welfare functionals plus the linear search.

Closed forms evaluate breakpoint sums using only CDF values; each has a
quadrature companion that integrates pointwise best responses instead, so
the two routes share no intermediate results. Welfare itself is defined by
quadrature (its integrand is the welfare envelope), split at breakpoints,
density kinks, and ironing flats so every panel is smooth. The optimal
linear share is a closed form where G is piecewise linear (each cell's
revenue is a quadratic) and a refined scan elsewhere (:func:`best_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import virtual_rule, welfare_envelope
from .instance import Instance, best_responses, kept
from .typedist import AtomPresentError, IronedVirtualCost, TypeDistribution, _exact, ironed

SIMPSON_PANELS = 256
ALPHA_GRID = 2001
#: Shares whose revenue :func:`compute_metrics` reports.
REVENUE_PROBES = (0.1, 0.25, 0.5, 0.75, 0.9)


def integrate_against(
    dist: TypeDistribution,
    f,
    a: float,
    b: float,
    extra_breaks=(),
    include_atoms: bool = True,
    endpoint_inset: float = 1e-12,
) -> float:
    """Integrate ``f`` against the distribution over [a, b].

    The continuous part is integrated segment by segment (segments split at
    density kinks and any extra breakpoints), each by the composite Simpson
    rule with :data:`SIMPSON_PANELS` panels; atoms in [a, b] contribute
    ``mass * f(location)``. Integrand and density are sampled a hair inside
    each segment (``endpoint_inset`` relative) so that nodes landing exactly
    on a kink take the segment-interior value. The nodes of all segments go
    to one ``f`` and one ``pdf`` call; ``f`` must act elementwise.
    """
    total = 0.0
    ends = sorted({a, b, *(p for p in (*dist.kinks(), *extra_breaks) if a < p < b)})
    if len(ends) > 1:
        lo, hi = np.asarray(ends[:-1]), np.asarray(ends[1:])
        delta = endpoint_inset * (hi - lo)
        x = np.linspace(lo, hi, 2 * SIMPSON_PANELS + 1, axis=1)
        x = np.clip(x, (lo + delta)[:, None], (hi - delta)[:, None]).ravel()
        y = (np.asarray(f(x)) * np.asarray(dist.pdf(x, side="right"))).reshape(len(lo), -1)
        h = (hi - lo) / SIMPSON_PANELS
        seg = h / 6.0 * (y[:, 0] + y[:, -1] + 4.0 * y[:, 1:-1:2].sum(axis=1) + 2.0 * y[:, 2:-2:2].sum(axis=1))
        for v in seg.tolist():  # one segment at a time: a numpy sum would round differently
            total += v
    if include_atoms:
        for loc, mass in dist.atoms:
            if a <= loc <= b:
                total += mass * float(np.asarray(f(np.asarray([loc])), dtype=float)[0])
    return total


# ---------------------------------------------------------------------------
# welfare


def welfare(
    instance: Instance,
    dist: TypeDistribution,
    interval: tuple[float, float] | None = None,
) -> float:
    """Expected first-best welfare from types in ``interval`` (default all),
    kept on ``instance`` per ``dist`` and interval (see ``instance.kept``)."""
    return kept(_welfare, instance, (dist,), interval=interval)


def _welfare(instance: Instance, dist: TypeDistribution, interval: tuple[float, float] | None) -> float:
    rule = welfare_envelope(instance)
    lo, hi = dist.c_low, max(dist.effective_high(), dist.c_low)
    if interval is not None:
        lo, hi = max(lo, interval[0]), min(hi, interval[1])
    if hi < lo:
        return 0.0
    R = instance.expected_reward_array()
    g = instance.gamma_array()

    def f(c):
        a = rule.action_at(np.asarray(c))
        return R[a] - g[a] * np.asarray(c)

    return integrate_against(dist, f, lo, hi, extra_breaks=rule.breakpoints)


# ---------------------------------------------------------------------------
# linear-contract revenue


def add_atom_revenue(
    total: float | np.ndarray, instance: Instance, dist: TypeDistribution, T: np.ndarray
) -> float | np.ndarray:
    """``total`` plus, per atom, its mass times the principal's utility from
    the atom type's tie-broken best response to the expected payments
    ``T``: one row per atom, or a single row for all. A leading axis of
    ``T`` (``[B, 1, K]``) gives one ``total`` per row. Terms are added one
    at a time, so the sum does not depend on the batching."""
    R = instance.expected_reward_array()
    T = np.broadcast_to(T, T.shape[:-2] + (len(dist.atoms), T.shape[-1]))
    rows = T.reshape(-1, T.shape[-1])
    locs = [loc for loc, _ in dist.atoms] * (len(rows) // len(dist.atoms))
    a = best_responses(rows, locs, instance.gamma_array(), R)
    u = (R - rows)[np.arange(len(rows)), a].reshape(T.shape[:-1])
    for (_, mass), u_atom in zip(dist.atoms, u.T):
        total = total + mass * u_atom
    return total


def linear_revenue(instance: Instance, dist: TypeDistribution, alpha: float | np.ndarray) -> float | np.ndarray:
    """Expected revenue of the linear contract with share ``alpha``, a float
    for a scalar share and an array for an array of shares.

    Closed form: the share-``alpha`` best-response rule's interval masses
    times ``(1 - alpha) * R``; atoms are resolved by the tie-broken best
    response so knife-edge incentives behave like the model says. The rule
    for share ``alpha`` is the welfare rule with its crossings scaled, so
    every share takes its actions from one envelope and its masses from one
    CDF call. A scalar share's revenue is kept on ``instance`` per ``dist``
    and share (see ``instance.kept``).
    """
    shares = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= shares) & (shares <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    if shares.ndim == 0:
        return kept(_linear_revenue, instance, (dist,), alpha=float(shares))
    return _linear_revenue(instance, dist, shares)


def _rule_cdf(instance: Instance, dist: TypeDistribution, al: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The welfare envelope's rewards in ascending cost, and one row per share of ``al``: the continuous
    CDF at the low end, the share's crossings clipped to the support and the high end, from one CDF call."""
    lo, hi = dist.c_low, dist.effective_high()
    R = instance.expected_reward_array()
    g = instance.gamma_array()
    acts = welfare_envelope(instance).actions[::-1]
    a, b = list(acts[:-1]), list(acts[1:])
    T = al[:, None] * R
    # the envelope's own crossing expression: alpha * z differs in the last bit
    cross = np.clip((T[:, a] - T[:, b]) / (g[a] - g[b]), lo, hi)
    # every share's rule starts at lo and ends at hi: price those two once
    priced = np.asarray(dist.cdf_continuous(np.concatenate([[lo, hi], cross.ravel()])), dtype=float)
    G = np.empty((len(al), len(acts) + 1))
    G[:, 0], G[:, -1], G[:, 1:-1] = priced[0], priced[1], priced[2:].reshape(cross.shape)
    return R[list(acts)], G


def _linear_revenue(instance: Instance, dist: TypeDistribution, alpha: float | np.ndarray) -> float | np.ndarray:
    shares = np.asarray(alpha, dtype=float)
    al = np.atleast_1d(shares)
    rewards, G = _rule_cdf(instance, dist, al)
    total = np.zeros(len(al))
    for k, reward in enumerate(rewards):
        total = total + (G[:, k + 1] - G[:, k]) * (1.0 - al) * reward
    if dist.atoms:
        # stacked matrix-vector products, one per share: a single matrix
        # product would round differently from ``expected_payments``
        T = (instance.prob_matrix() @ (al[:, None] * instance.reward_array())[:, :, None]).swapaxes(1, 2)
        total = add_atom_revenue(total, instance, dist, T)
    return float(total[0]) if shares.ndim == 0 else total


def linear_revenue_quadrature(instance: Instance, dist: TypeDistribution, alpha: float) -> float:
    """Quadrature route for the same quantity, via pointwise argmax."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    R = instance.expected_reward_array()
    g = instance.gamma_array()

    def f(c):
        util = alpha * R[None, :] - g[None, :] * np.asarray(c, dtype=float)[:, None]
        return (1.0 - alpha) * R[np.argmax(util, axis=1)]

    lo, hi = dist.c_low, dist.effective_high()
    cont = 0.0
    if hi > lo:
        breaks = [alpha * z for z in welfare_envelope(instance).breakpoints[1:-1]]
        cont = integrate_against(dist, f, lo, hi, extra_breaks=breaks, include_atoms=False, endpoint_inset=1e-9)
    if dist.atoms:
        T = instance.expected_payments(alpha * instance.reward_array())
        cont = add_atom_revenue(cont, instance, dist, T[None, :])
    return cont


# ---------------------------------------------------------------------------
# virtual welfare


def _phibar_mass_integral(dist: TypeDistribution, iv: IronedVirtualCost, a: float, b: float, G=None) -> float:
    """Exact ``∫_a^b ironed_virtual_cost(c) g(c) dc`` using CDF values only.

    Off the flats the ironed function equals ``c + G/g``, whose density-
    weighted antiderivative is ``c G(c)``; on a flat the level is constant.
    ``G`` maps ``a``, ``b`` and the flat ends to their CDF values (by
    default from one ``dist.cdf`` call).
    """
    if b <= a:
        return 0.0
    if G is None:
        G = _cdf_values(dist, [a, b, *(end for flat in iv.flats for end in flat[:2])])
    total = 0.0
    cursor = a

    def follow(lo: float, hi: float) -> float:
        return hi * G[hi] - lo * G[lo]

    for flo, fhi, level in iv.flats:
        s_lo, s_hi = max(flo, cursor), min(fhi, b)
        if s_hi <= s_lo:
            continue
        if s_lo > cursor:
            total += follow(cursor, s_lo)
        total += level * (G[s_hi] - G[s_lo])
        cursor = s_hi
    if b > cursor:
        total += follow(cursor, b)
    return total


def _cdf_values(dist: TypeDistribution, costs: list[float]) -> dict:
    """``{cost: G(cost)}`` from one CDF call."""
    return dict(zip(costs, np.asarray(dist.cdf(np.asarray(costs, dtype=float))).tolist()))


def virtual_welfare(
    instance: Instance,
    dist: TypeDistribution,
    interval: tuple[float, float] | None = None,
    iv: IronedVirtualCost | None = None,
) -> float:
    """Optimal expected (ironed) virtual welfare from types in ``interval``.

    Breakpoint closed form: summing interval masses of the virtual-welfare
    rule reproduces the telescoped breakpoint sums, including the boundary
    correction when the interval starts strictly inside an action's range.
    Every CDF value comes from one ``dist.cdf`` call. Kept on ``instance``
    per ``dist``, ``iv`` and interval (see ``instance.kept``).
    """
    if dist.has_atoms:
        raise AtomPresentError("virtual welfare requires an atom-free distribution")
    return kept(_virtual_welfare, instance, (dist, ironed(dist) if iv is None else iv), interval=interval)


def _virtual_welfare(instance: Instance, dist: TypeDistribution, iv: IronedVirtualCost, interval) -> float:
    rule = virtual_rule(instance, iv)
    lo, hi = interval if interval is not None else (iv.c_low, iv.c_high)
    lo = max(lo, iv.c_low)
    hi = min(hi, iv.c_high)
    if hi <= lo:
        return 0.0
    R = instance.expected_reward_array()
    g = instance.gamma_array()
    segs = [(max(seg_lo, lo), min(seg_hi, hi), action) for seg_lo, seg_hi, action in rule.intervals()]
    segs = [seg for seg in segs if seg[1] > seg[0]]
    G = _cdf_values(dist, [*(end for seg in segs for end in seg[:2]), *(end for flat in iv.flats for end in flat[:2])])
    total = 0.0
    for s_lo, s_hi, action in segs:
        mass = G[s_hi] - G[s_lo]
        total += R[action] * mass - g[action] * _phibar_mass_integral(dist, iv, s_lo, s_hi, G)
    return total


def virtual_welfare_quadrature(
    instance: Instance,
    dist: TypeDistribution,
    interval: tuple[float, float] | None = None,
    iv: IronedVirtualCost | None = None,
) -> float:
    """Quadrature route: integrate ``R - gamma * ironed_virtual_cost`` under
    the pointwise virtual argmax."""
    if dist.has_atoms:
        raise AtomPresentError("virtual welfare requires an atom-free distribution")
    if iv is None:
        iv = ironed(dist)
    lo, hi = interval if interval is not None else (iv.c_low, iv.c_high)
    lo, hi = max(lo, iv.c_low), min(hi, iv.c_high)
    if hi <= lo:
        return 0.0
    R = instance.expected_reward_array()
    g = instance.gamma_array()

    def f(c):
        q = np.asarray(iv.value(np.asarray(c)), dtype=float)
        vwel = R[None, :] - g[None, :] * q[:, None]
        a = np.argmax(vwel, axis=1)
        return R[a] - g[a] * q

    breaks = list(virtual_rule(instance, iv).breakpoints)
    for flo, fhi, _ in iv.flats:
        breaks += [flo, fhi]
    return integrate_against(dist, f, lo, hi, extra_breaks=breaks)


# ---------------------------------------------------------------------------
# optimal linear contract


def best_linear(instance: Instance, dist: TypeDistribution) -> tuple[float, float]:
    """Revenue-maximizing linear share and its revenue.

    The revenue of share a is ``(1 - a) S(a)``, ``S(a) = R_last + sum_k
    dR_k * G(a * z_k)`` over the welfare crossings z_k (Dütting, Roughgarden
    and Talgam-Cohen, EC 2019), kinked only at ratios q/z of a support end,
    density kink or atom q to a crossing z. Where G is piecewise linear
    (``typedist._exact``), S is linear between 0, 1 and the ratios: one
    call prices those ends and each cell's vertex ``(q - p)/(2q)`` of
    ``(1 - a)(p + q a)`` where q > 0. Elsewhere :data:`ALPHA_GRID` shares
    and the ratios are refined by passes of 65 shares between the best
    share's neighbours, until 1e-15 apart, keeping only strict gains. The
    first maximum wins, and the revenue is :func:`linear_revenue`'s own.
    """
    zs = welfare_envelope(instance).breakpoints[1:-1]
    landmarks = [dist.c_low, dist.effective_high(), *(k for k in dist.kinks() if math.isfinite(k))]
    ratios = (np.asarray(landmarks)[:, None] / np.asarray(zs)[None, :]).ravel()
    ratios = ratios[(ratios > 0.0) & (ratios <= 1.0)]
    exact = _exact(dist)
    if exact:
        ends = np.unique(np.concatenate([[0.0, 1.0], ratios]))
        rewards, G = _rule_cdf(instance, dist, ends)
        S = np.diff(G, axis=1) @ rewards
        q = np.diff(S) / np.diff(ends)  # the vertex of (1 - a)(p + q a), or -inf where q <= 0
        top = 0.5 - np.divide(S[:-1] - q * ends[:-1], 2.0 * q, out=np.full_like(q, math.inf), where=q > 0.0)
        alphas = np.unique(np.concatenate([ends, top[(ends[:-1] < top) & (top < ends[1:])]]))
    else:
        alphas = np.unique(np.concatenate([np.linspace(0.0, 1.0, ALPHA_GRID), ratios]))
    best_a, best_v = 0.0, -math.inf
    while True:
        revs = linear_revenue(instance, dist, alphas)
        k = int(np.argmax(revs))  # the first maximum: ties go to the lowest share
        if revs[k] > best_v:
            best_a, best_v = alphas[k], revs[k]
        lo, hi = alphas[max(k - 1, 0)], alphas[min(k + 1, len(alphas) - 1)]
        if exact or hi - lo <= 1e-15:
            return float(best_a), float(best_v)
        alphas = np.linspace(lo, hi, 65)


# ---------------------------------------------------------------------------
# bundle


@dataclass(frozen=True)
class Metrics:
    """Headline functionals of an (instance, distribution) pair."""

    wel: float
    vwel: float | None
    alpha_best: float
    revenue_best: float
    apx_at: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "welfare": self.wel,
            "virtual_welfare": self.vwel,
            "best_linear": {"alpha": self.alpha_best, "revenue": self.revenue_best},
            "revenue_at": [{"alpha": a, "revenue": r} for a, r in self.apx_at],
        }


def compute_metrics(instance: Instance, dist: TypeDistribution) -> Metrics:
    wel = welfare(instance, dist)
    vwel = None if dist.has_atoms else virtual_welfare(instance, dist)
    a_star, rev = best_linear(instance, dist)
    apx = tuple(zip(REVENUE_PROBES, linear_revenue(instance, dist, np.asarray(REVENUE_PROBES)).tolist()))
    return Metrics(wel=wel, vwel=vwel, alpha_best=a_star, revenue_best=rev, apx_at=apx)
