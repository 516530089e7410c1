"""Distributional condition parameters and theorem verdicts.

Each condition is an inf/sup of a CDF or virtual-cost ratio over a cost
range, estimated by a dense scan (:data:`SCAN_POINTS` points plus every
distribution landmark) followed by :data:`REFINE_ROUNDS` rounds of 65 points
each around the best point so far; a sup and an inf share every call.
Verdicts record the measured parameters, the implied guarantee, and
whether the guaranteed inequality holds on the concrete instance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .allocation import virtual_rule
from .instance import Instance, kept, reject_nan
from .metrics import best_linear, linear_revenue, virtual_welfare, welfare
from .typedist import (
    AtomPresentError,
    IronedVirtualCost,
    PiecewisePart,
    TypeDistribution,
    UniformPart,
    ironed,
    mixture,
    point_mass,
    uniform,
)

SCAN_POINTS = 4096
REFINE_ROUNDS = 3
VERDICT_TOL = 1e-6


@dataclass(frozen=True)
class ConditionReport:
    """A measured condition parameter with the cost achieving it."""

    kind: str
    value: float
    witness: float | None
    params: dict = field(default_factory=dict)
    scan_points = SCAN_POINTS

    def to_dict(self) -> dict:
        return {**asdict(self), "scan_points": self.scan_points}


def _extremes(f, lo: float, hi: float, extras, signs=(1.0,)) -> list[tuple[float, float]]:
    """The inf (sign 1.0) or sup (sign -1.0) of a piecewise-smooth f on [lo, hi]
    per sign, as ``(x, f(x))``: one scan of :data:`SCAN_POINTS` even points plus
    the extras inside [lo, hi], shared by every sign, then :data:`REFINE_ROUNDS`
    rounds of 65 points around each sign's best point so far, every sign's
    points priced in one f call per round. Non-finite values never win."""
    grids = [np.unique(np.concatenate([np.linspace(lo, hi, SCAN_POINTS), [e for e in extras if lo <= e <= hi]]))]
    best, brackets = [None] * len(signs), [None] * len(signs)
    for rnd in range(REFINE_ROUNDS + 1):
        if rnd:
            grids = [np.linspace(a, b, 65) for a, b in brackets]
        with np.errstate(all="ignore"):
            vals = np.asarray(f(np.concatenate(grids)), dtype=float).reshape(len(grids), -1)
        for i, s in enumerate(signs):
            x, v = grids[i % len(grids)], s * vals[i % len(grids)]  # the scan's one grid serves every sign
            v = np.where(np.isfinite(v), v, np.inf)
            j = int(np.argmin(v))
            if not rnd or v[j] < best[i][1]:
                best[i] = float(x[j]), float(v[j])
            brackets[i] = x[max(j - 1, 0)], x[min(j + 1, len(x) - 1)]
    return [(x, s * v) for s, (x, v) in zip(signs, best)]


def _landmarks(dist: TypeDistribution, alpha: float = 1.0) -> list[float]:
    pts = [k for k in dist.kinks() if math.isfinite(k)]
    pts += [loc for loc, _ in dist.atoms]
    if 0 < alpha < 1:
        pts += [p / alpha for p in pts]
    return pts


def _slow_beta(kind: str, dist: TypeDistribution, lift, alpha: float, kappa: float, lo: float, hi: float,
               extras) -> ConditionReport:
    """Largest beta with ``G(alpha max(kappa, lift(x))) >= beta G(x)`` for all
    scanned types x in [lo, hi], witnessed at the cost ``max(kappa, lift(x))``.
    The caller has checked alpha and kappa (:func:`_slow_args`)."""

    def ratio(x):  # x is the scan's float array, as in every ratio below
        den, num = np.split(dist.cdf(np.concatenate([x, alpha * np.maximum(kappa, lift(x))])), 2)
        with np.errstate(all="ignore"):
            return np.where(den > 1e-300, num / den, np.nan)

    (x, v), = _extremes(ratio, lo, max(hi, lo + 1e-12), extras)
    if not math.isfinite(v):
        v, x = 1.0, lo  # G vanishes on the whole range: vacuous condition
    return ConditionReport(
        kind=kind,
        value=float(min(v, 1.0)),
        witness=max(lift(x), kappa),
        params={"alpha": alpha, "kappa": kappa},
    )


def _slow_args(alpha: float, kappa: float) -> None:  # a NaN, or an alpha outside (0, 1], raises
    reject_nan(alpha=alpha, kappa=kappa)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def slowly_increasing_beta(dist: TypeDistribution, alpha: float, kappa: float) -> ConditionReport:
    """Largest beta with ``G(alpha c) >= beta G(c)`` for all scanned c >= kappa."""
    _slow_args(alpha, kappa)
    return _slow_beta("slowly-increasing", dist, lambda x: x, alpha, kappa, max(kappa, dist.c_low),
                      dist.effective_high() / alpha, _landmarks(dist, alpha))


def slow_virtual_beta(
    dist: TypeDistribution, iv: IronedVirtualCost | None, alpha: float, kappa: float
) -> ConditionReport:
    """Largest beta with ``G(alpha c) >= beta G(inverse_ironed(c))`` from kappa up.

    The costs whose inverse is the type x form [ironed(x-), ironed(x+)], and
    the lowest above kappa is the worst, so beta is the inf over types x from
    the inverse of kappa up of ``G(alpha max(kappa, ironed(x))) / G(x)``. The
    scan adds the kinks, the float below each (the ironed cost's left limit),
    the flat ends, and the inverse of each kink / alpha (a numerator kink)."""
    if dist.has_atoms:
        raise AtomPresentError("slow-virtual condition requires an atom-free distribution")
    _slow_args(alpha, kappa)
    iv = ironed(dist) if iv is None else iv
    kinks = np.asarray([k for k in dist.kinks() if math.isfinite(k)])
    lo, *images = iv.inverse(np.concatenate([[kappa], kinks / alpha]))
    lo = max(np.nextafter(lo, -math.inf), iv.c_low)  # kappa is the worst cost there, also at a jump
    extras = [*kinks, *np.nextafter(kinks, -math.inf), *(end for flat in iv.flats for end in flat[:2]), *images]
    return _slow_beta("slow-virtual", dist, iv.value, alpha, kappa, lo, iv.c_high, extras)


def linear_bounded_params(
    dist: TypeDistribution, iv: IronedVirtualCost | None = None, kappa: float = 0.0
) -> ConditionReport:
    """Tightest (alpha, beta) with ``c/alpha <= ironed(c) <= c/beta`` above kappa.

    Measured as the sup and inf of ``c / ironed(c)``; the value field holds
    alpha, params carry both. On unbounded supports beta is only valid up
    to the scan truncation, which is flagged. Kept on ``iv`` per ``dist``
    and kappa (``instance.kept``); each call owns its ``params``.
    """
    if dist.has_atoms:
        raise AtomPresentError("linear boundedness requires an atom-free distribution")
    rep = kept(_linear_bounded, ironed(dist) if iv is None else iv, (dist,), kappa=kappa)
    return replace(rep, params=dict(rep.params))


def _linear_bounded(iv: IronedVirtualCost, dist: TypeDistribution, kappa: float) -> ConditionReport:
    lo = max(kappa, dist.c_low)
    hi = iv.c_high
    if lo <= 0.0:
        lo = min(1e-9 * max(hi, 1.0), hi / 2)

    def ratio(c):
        vb = iv.value(c)
        with np.errstate(all="ignore"):
            return np.where(vb > 0, c / vb, np.nan)

    (x_sup, alpha), (x_inf, beta) = _extremes(ratio, lo, hi, _landmarks(dist), (-1.0, 1.0))
    unbounded = not math.isfinite(dist.c_high)
    return ConditionReport(
        kind="linear-bounded",
        value=float(alpha),
        witness=x_sup,
        params={
            "alpha": float(alpha),
            "beta": float(beta),
            "beta_witness": x_inf,
            "kappa": kappa,
            "beta_scan_truncated": unbounded,
        },
    )


def small_tail_eta(
    instance: Instance,
    dist: TypeDistribution,
    kappa: float,
    kind: str = "cost",
) -> ConditionReport:
    """Fraction of the (virtual) welfare contributed by types above kappa."""
    reject_nan(kappa=kappa)
    if kind == "cost":
        full = welfare(instance, dist)
        tail = welfare(instance, dist, (kappa, math.inf))
    elif kind == "virtual":
        full = virtual_welfare(instance, dist)
        tail = virtual_welfare(instance, dist, (kappa, math.inf))
    else:
        raise ValueError("kind must be 'cost' or 'virtual'")
    degenerate = abs(full) <= 1e-12
    eta = 1.0 if degenerate else max(0.0, min(1.0, tail / full))
    return ConditionReport(
        kind=f"small-tail-{kind}",
        value=float(eta),
        witness=kappa,
        params={"kappa": kappa, "full": full, "tail": tail, "degenerate": degenerate},
    )


def rhr_bound_alpha_hat(dist: TypeDistribution) -> ConditionReport:
    """Largest alpha-hat with ``reverse_hazard_rate(c) <= 1/(alpha_hat c)``.

    Equals the inf of ``G(c) / (c g(c))`` over the support; implies the
    virtual cost sits above ``(1 + alpha_hat) c``, which is cross-checked
    on 512 even points outside any zero-density gap and reported.
    """
    if dist.has_atoms:
        raise AtomPresentError("reverse-hazard bound requires an atom-free distribution")
    hi = dist.effective_high()
    lo = dist.c_low
    if lo <= 0.0:
        lo = min(1e-9 * max(hi, 1.0), hi / 2)

    def ratio(c):
        g = dist.pdf(c, side="right")
        G = dist.cdf(c)
        with np.errstate(all="ignore"):
            return np.where((g > 0) & (c > 0), G / (c * g), np.nan)

    (x, v), = _extremes(ratio, lo, hi, _landmarks(dist))
    grid = np.linspace(lo, hi, 512)
    grid = grid[(dist.pdf(grid, side="right") > 0) | (dist.pdf(grid, side="left") > 0)]
    phi = np.asarray(dist.virtual_cost(grid), dtype=float)
    slack = float(np.min(phi - (1.0 + v) * grid))
    return ConditionReport(
        kind="rhr",
        value=float(v),
        witness=x,
        params={"virtual_cost_slack": slack},
    )


# ---------------------------------------------------------------------------
# theorem verification


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of checking one guarantee on a concrete instance."""

    theorem: str
    hypothesis_ok: bool
    notes: tuple[str, ...]
    guarantee: float
    benchmark_name: str
    benchmark: float
    revenue: float
    alpha: float
    ratio: float
    passed: bool
    degenerate: bool
    params: dict = field(default_factory=dict)
    tolerance = VERDICT_TOL

    def to_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes), "tolerance": self.tolerance}


THEOREMS = ("universal", "slow", "lin_bounded_1", "lin_bounded_2", "upper_n", "smooth", "wel_implications",
            "rev_implications")


def _finish(theorem: str, hypothesis_ok: bool, notes: list[str], guarantee: float, benchmark_name: str,
            benchmark: float, revenue: float, alpha: float, params: dict) -> TheoremVerdict:
    degenerate = benchmark <= 1e-12
    if degenerate:
        ratio = 1.0
        ineq = True
        notes = notes + ["benchmark is zero; pass is vacuous"]
    else:
        ratio = benchmark / revenue if revenue > 0 else math.inf
        ineq = benchmark <= guarantee * revenue + VERDICT_TOL * benchmark
    return TheoremVerdict(
        theorem=theorem,
        hypothesis_ok=hypothesis_ok,
        notes=tuple(notes),
        guarantee=float(guarantee),
        benchmark_name=benchmark_name,
        benchmark=float(benchmark),
        revenue=float(revenue),
        alpha=float(alpha),
        ratio=float(ratio),
        passed=bool(hypothesis_ok and ineq),
        degenerate=bool(degenerate),
        params=params,
    )


def _density_non_increasing(dist: TypeDistribution, notes: list[str]) -> bool:
    """No step up at a kink, and ``sum w g' <= 0`` on each cell between the
    kinks and the parts' turns. Each part's g' keeps one sign on a cell, that
    of its ``log_slope``, so a density that underflows there still counts;
    only where parts disagree is the sum scanned, with a note."""
    lo, hi = dist.c_low, dist.effective_high()
    turns = (t for _, p in dist.parts for t in p.turns)
    ends = np.unique([lo, hi, *(k for k in (*dist.kinks(), *turns) if lo < k < hi)])
    mids = 0.5 * (ends[:-1] + ends[1:])
    signs = np.sign([p.log_slope(mids) for _, p in dist.parts]).reshape(len(dist.parts), len(mids))
    up, down = (signs > 0).any(axis=0), (signs < 0).any(axis=0)
    if (up & down).any():
        notes.append(f"density slope scanned on {int((up & down).sum())} of {len(ends) - 1} cells")

    def slope(c):  # sum w g'
        return sum(w * p.pdf(c, "right") * p.log_slope(c) for w, p in dist.parts)

    rises = (up & ~down).any() or any(_extremes(slope, a, b, (), (-1.0,))[0][1] > 0.0
                                      for a, b in zip(ends[:-1][up & down], ends[1:][up & down]))
    right, left = dist.pdf(ends, side="right"), dist.pdf(ends, side="left")
    return bool(not rises and np.all(right[1:-1] - left[1:-1] <= 1e-9 * max(right.max(), left.max(), 1e-300)))


def _top_action(instance: Instance, iv: IronedVirtualCost) -> int:
    """The action the virtual welfare rule gives the highest type."""
    return virtual_rule(instance, iv).actions[0]


def smoothed_point_mass(epsilon: float) -> TypeDistribution:
    """Point mass at 1 perturbed with uniform noise on [0, 2]."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return mixture([(1.0 - epsilon, point_mass(1.0)), (epsilon, uniform(0.0, 2.0))])


def verify(
    instance: Instance,
    dist: TypeDistribution,
    theorem: str,
    q: float | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    kappa: float | None = None,
    eta: float | None = None,
    epsilon: float | None = None,
    variant: str | None = None,
) -> TheoremVerdict:
    """Numerically check one approximation guarantee on (instance, dist).

    Hypothesis failures are reported in the verdict (never raised); the
    verdict passes only when the hypotheses hold and the guaranteed
    inequality does too.
    """
    # need() puts a failed hypothesis in both lists; a note appended directly
    # only informs. A nan argument raises before any check.
    notes: list[str] = []
    failed: list[str] = []

    def need(ok: bool, note: str) -> bool:
        if not ok:
            failed.append(note)
            notes.append(note)
        return ok

    reject_nan(q=q, alpha=alpha, beta=beta, kappa=kappa, eta=eta, epsilon=epsilon)
    if theorem == "rev_implications" and variant not in (
            "uniform", "exponential", "truncated_normal", "non_increasing"):
        raise ValueError("rev_implications needs a variant" if variant is None
                         else f"unknown rev_implications variant '{variant}'")
    if theorem in ("lin_bounded_1", "lin_bounded_2", "upper_n", "rev_implications") and dist.has_atoms:
        return _finish(theorem, False, ["distribution has atoms"], math.inf, "virtual_welfare", 0.0, 0.0, 0.0, {})

    if theorem == "universal":
        q = 0.25 if q is None else q
        alpha = 0.5 if alpha is None else alpha
        need(0 < q < 1 and 0 < alpha < 1, "need q and alpha strictly inside (0, 1)")
        c_q = dist.quantile(q)
        kap = c_q / alpha
        eta_rep = small_tail_eta(instance, dist, kap, "cost")
        eta_m = eta_rep.value
        need(eta_m > 0, f"empty welfare tail above {kap:g}")
        guarantee = math.inf if failed else 1.0 / ((1.0 - alpha) * eta_m * q)
        wel = eta_rep.params["full"]
        rev = linear_revenue(instance, dist, alpha)
        return _finish(theorem, not failed, notes, guarantee, "welfare", wel, rev, alpha,
                       {"q": q, "c_q": c_q, "kappa": kap, "eta": eta_m})

    if theorem == "slow":
        alpha = 0.5 if alpha is None else alpha
        if kappa is None:
            kappa = dist.c_low / alpha
        need(0 < alpha < 1, "need alpha strictly inside (0, 1)")
        need(not kappa < dist.c_low / alpha - 1e-12, "kappa below c_low/alpha")
        beta_m = beta if beta is not None else slowly_increasing_beta(dist, alpha, kappa).value
        eta_rep = small_tail_eta(instance, dist, kappa, "cost")
        eta_m = eta if eta is not None else eta_rep.value
        need(not (beta_m <= 0 or eta_m <= 0), "beta or eta vanishes")
        guarantee = math.inf if failed else 1.0 / ((1.0 - alpha) * beta_m * eta_m)
        rev = linear_revenue(instance, dist, alpha)
        return _finish(theorem, not failed, notes, guarantee, "welfare", eta_rep.params["full"], rev,
                       alpha, {"beta": beta_m, "eta": eta_m, "kappa": kappa})

    if theorem in ("lin_bounded_1", "lin_bounded_2"):
        kappa = dist.c_low if kappa is None else kappa
        lb = linear_bounded_params(dist, None, kappa)
        alpha_m = lb.value
        beta_m = lb.params["beta"]
        if lb.params["beta_scan_truncated"]:
            beta_m = 0.0
            notes.append("unbounded support: beta taken as 0 beyond the scan")
        eta_rep = small_tail_eta(instance, dist, kappa, "virtual")
        eta_m = eta if eta is not None else eta_rep.value
        need(not (alpha_m >= 1.0 - 1e-12 or eta_m <= 0), "alpha reaches 1 or eta vanishes")
        top_action = _top_action(instance, ironed(dist))
        params = {"alpha": alpha_m, "beta": beta_m, "eta": eta_m, "kappa": kappa, "top_action": top_action}
        if theorem == "lin_bounded_2":
            need(top_action == 0, "highest type still incentivized to work")
            guarantee = math.inf if failed else (1.0 - beta_m) / (eta_m * (1.0 - alpha_m))
        else:
            guarantee = math.inf if failed else 1.0 / (eta_m * (1.0 - alpha_m))
        rev = linear_revenue(instance, dist, alpha_m)
        return _finish(theorem, not failed, notes, guarantee, "virtual_welfare",
                       eta_rep.params["full"], rev, alpha_m, params)

    if theorem == "upper_n":
        need(instance.n >= 1, "need at least one non-null action")
        a_star, rev = best_linear(instance, dist)
        vwel = virtual_welfare(instance, dist)
        return _finish(theorem, not failed, notes, float(instance.n), "virtual_welfare",
                       vwel, rev, a_star, {"n": instance.n})

    if theorem == "smooth":
        if epsilon is None:
            raise ValueError("smooth verification needs epsilon")
        canonical = smoothed_point_mass(epsilon)
        # both CDFs are then linear between kinks: matching at every kink from both sides is exact
        at = np.asarray(sorted({*dist.kinks(), *canonical.kinks()}))
        need(all(isinstance(p, (UniformPart, PiecewisePart)) for _, p in dist.parts)
             and all(np.allclose(cdf(dist, at), cdf(canonical, at), atol=1e-9)
                     for cdf in (TypeDistribution.cdf, TypeDistribution.cdf_left)),
             "distribution is not the smoothed point mass")
        beta_closed = epsilon / (2.0 * (2.0 - epsilon))
        beta_m = slowly_increasing_beta(dist, 0.5, 0.0).value
        need(beta_m >= beta_closed - 1e-9, "measured slow-increase beta below the closed form")
        guarantee = 4.0 * (2.0 - epsilon) / epsilon
        wel = welfare(instance, dist)
        rev = linear_revenue(instance, dist, 0.5)
        return _finish(theorem, not failed, notes, guarantee, "welfare", wel, rev, 0.5,
                       {"epsilon": epsilon, "beta": beta_m, "beta_closed_form": beta_closed})

    if theorem == "wel_implications":
        need(_density_non_increasing(dist, notes), "density is not non-increasing")
        if dist.c_low > 0:
            kappa = 3.0 if kappa is None else kappa
            if not need(kappa > 1.0, "need kappa > 1"):
                kappa = 1.0 + 1e-9
            alpha_v = (kappa + 1.0) / (2.0 * kappa)
            threshold = kappa * dist.c_low
            eta_rep = small_tail_eta(instance, dist, threshold, "cost")
            eta_m = eta_rep.value
            guarantee = 4.0 * kappa / (eta_m * (kappa - 1.0)) if eta_m > 0 else math.inf
            need(eta_m > 0, "empty welfare tail")
            variant_used = "positive-low-support"
        else:
            alpha_v = 0.5
            threshold = 0.0
            eta_rep = small_tail_eta(instance, dist, threshold, "cost")
            eta_m = eta_rep.value
            guarantee = 4.0 / eta_m if eta_m > 0 else math.inf
            variant_used = "zero-low-support"
        rev = linear_revenue(instance, dist, alpha_v)
        return _finish(theorem, not failed, notes, guarantee, "welfare", eta_rep.params["full"],
                       rev, alpha_v,
                       {"kappa": kappa, "threshold": threshold, "eta": eta_m,
                        "variant": variant_used})

    if theorem == "rev_implications":
        iv = ironed(dist)
        lb = linear_bounded_params(dist, iv, dist.c_low)
        params: dict = {"variant": variant, "alpha_measured": lb.value,
                        "beta_measured": lb.params["beta"]}
        if variant == "uniform":
            need(abs(lb.value - 0.5) <= 1e-6 and abs(lb.params["beta"] - 0.5) <= 1e-6,
                 "ironed virtual cost is not 2c")
            alpha_v = 0.5
            params["top_action"] = _top_action(instance, iv)
            guarantee = 1.0 if params["top_action"] == 0 else 2.0
        elif variant == "exponential":
            need(_density_non_increasing(dist, notes) and dist.c_low <= 1e-12,
                 "need non-increasing density on [0, inf)")
            need(lb.value <= 0.5 + 1e-6, "virtual cost dips below 2c")
            alpha_v = 0.5
            guarantee = 2.0
        elif variant == "truncated_normal":
            part = dist.parts[0][1] if len(dist.parts) == 1 else None
            need(type(part).__name__ == "TruncatedNormalPart" and part.low == 0.0
                 and part.sigma >= (5.0 / (2.0 * math.sqrt(2.0))) * part.mu - 1e-12,
                 "not a zero-truncated normal with sigma >= 5/(2*sqrt(2)) mu")
            need(lb.value <= 2.0 / 3.0 + 1e-6, "virtual cost dips below 1.5c")
            alpha_v = 2.0 / 3.0
            guarantee = 3.0
        else:  # non_increasing
            kappa = 3.0 if kappa is None else kappa
            need(dist.c_low > 0 and kappa > 1.0 and _density_non_increasing(dist, notes),
                 "need non-increasing density, c_low > 0, kappa > 1")
            alpha_v = kappa / (2.0 * kappa - 1.0)
            threshold = kappa * dist.c_low
            eta_rep = small_tail_eta(instance, dist, threshold, "virtual")
            eta_m = eta_rep.value
            params.update({"kappa": kappa, "threshold": threshold, "eta": eta_m})
            guarantee = (2.0 * kappa - 1.0) / (eta_m * (kappa - 1.0)) if eta_m > 0 else math.inf
            need(eta_m > 0, "empty virtual-welfare tail")
        vwel = virtual_welfare(instance, dist, iv=iv)
        rev = linear_revenue(instance, dist, alpha_v)
        return _finish(theorem, not failed, notes, guarantee, "virtual_welfare", vwel, rev,
                       alpha_v, params)

    raise ValueError(f"unknown theorem '{theorem}' (choose from {', '.join(THEOREMS)})")
