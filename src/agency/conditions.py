"""Distributional condition parameters and theorem verdicts.

Each condition is an inf/sup of a CDF or virtual-cost ratio over a cost
range, estimated by a dense scan (:data:`SCAN_POINTS` points plus every
distribution landmark) followed by rounds of local trisection refinement.
Verdicts record the measured parameters, the implied guarantee, and
whether the guaranteed inequality holds on the concrete instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .instance import Instance, best_response, kept, reject_nan
from .metrics import best_linear, linear_revenue, virtual_welfare, welfare
from .typedist import (
    AtomPresentError,
    IronedVirtualCost,
    TypeDistribution,
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
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": self.witness,
            "params": dict(self.params),
            "scan_points": self.scan_points,
        }


def _scan(f, lo: float, hi: float, extras=()) -> tuple[np.ndarray, np.ndarray]:
    """:data:`SCAN_POINTS` even points of [lo, hi] plus the extras inside it, and f there."""
    xs = np.unique(np.concatenate([np.linspace(lo, hi, SCAN_POINTS), [e for e in extras if lo <= e <= hi]]))
    with np.errstate(all="ignore"):
        return xs, np.asarray(f(xs), dtype=float)


def _scan_min(f, xs: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Minimize a piecewise-smooth f by refinement around the best scanned value."""
    vals = np.where(np.isfinite(vals), vals, np.inf)
    k = int(np.argmin(vals))
    best_x, best_v = float(xs[k]), float(vals[k])
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    for _ in range(REFINE_ROUNDS):
        sub = np.linspace(a, b, 65)
        with np.errstate(all="ignore"):
            sv = np.asarray(f(sub), dtype=float)
        sv = np.where(np.isfinite(sv), sv, np.inf)
        j = int(np.argmin(sv))
        if float(sv[j]) < best_v:
            best_x, best_v = float(sub[j]), float(sv[j])
        a = sub[max(j - 1, 0)]
        b = sub[min(j + 1, len(sub) - 1)]
    return best_x, best_v


def _scan_max(f, xs, vals):
    x, v = _scan_min(lambda c: -np.asarray(f(c), dtype=float), xs, -vals)
    return x, -v


def _landmarks(dist: TypeDistribution, alpha: float = 1.0) -> list[float]:
    pts = [k for k in dist.kinks() if math.isfinite(k)]
    pts += [loc for loc, _ in dist.atoms]
    if 0 < alpha < 1:
        pts += [p / alpha for p in pts]
    return pts


def _slow_beta(kind: str, dist: TypeDistribution, upper, alpha: float, kappa: float, hi: float) -> ConditionReport:
    """Largest beta with ``G(alpha c) >= beta G(upper(c))`` for all scanned
    c in [kappa, hi]; a NaN, or an alpha outside (0, 1], raises ``ValueError``."""
    reject_nan(alpha=alpha, kappa=kappa)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")

    def ratio(c):
        c = np.asarray(c, dtype=float)
        den = np.asarray(dist.cdf(upper(c)), dtype=float)
        num = np.asarray(dist.cdf(alpha * c), dtype=float)
        with np.errstate(all="ignore"):
            return np.where(den > 1e-300, num / den, np.nan)

    lo = max(kappa, dist.c_low)
    x, v = _scan_min(ratio, *_scan(ratio, lo, max(hi, lo + 1e-12), _landmarks(dist, alpha)))
    if not math.isfinite(v):
        v, x = 1.0, lo  # G vanishes on the whole range: vacuous condition
    return ConditionReport(
        kind=kind,
        value=float(min(v, 1.0)),
        witness=x,
        params={"alpha": alpha, "kappa": kappa},
    )


def slowly_increasing_beta(dist: TypeDistribution, alpha: float, kappa: float) -> ConditionReport:
    """Largest beta with ``G(alpha c) >= beta G(c)`` for all scanned c >= kappa."""
    hi = dist.effective_high()
    hi_scan = hi / alpha if 0.0 < alpha < 1.0 else hi  # _slow_beta rejects the other alphas
    return _slow_beta("slowly-increasing", dist, lambda c: c, alpha, kappa, hi_scan)


def slow_virtual_beta(
    dist: TypeDistribution, iv: IronedVirtualCost | None, alpha: float, kappa: float
) -> ConditionReport:
    """Largest beta with ``G(alpha c) >= beta G(inverse_ironed(c))`` from kappa up."""
    if dist.has_atoms:
        raise AtomPresentError("slow-virtual condition requires an atom-free distribution")
    iv = ironed(dist) if iv is None else iv
    return _slow_beta("slow-virtual", dist, iv.inverse, alpha, kappa, float(iv.values[-1]))


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
        c = np.asarray(c, dtype=float)
        vb = np.asarray(iv.value(c), dtype=float)
        with np.errstate(all="ignore"):
            return np.where(vb > 0, c / vb, np.nan)

    scan = _scan(ratio, lo, hi, _landmarks(dist))  # shared by the sup and the inf
    x_sup, alpha = _scan_max(ratio, *scan)
    x_inf, beta = _scan_min(ratio, *scan)
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
    on the scan grid and reported.
    """
    if dist.has_atoms:
        raise AtomPresentError("reverse-hazard bound requires an atom-free distribution")
    hi = dist.effective_high()
    lo = dist.c_low
    if lo <= 0.0:
        lo = min(1e-9 * max(hi, 1.0), hi / 2)

    def ratio(c):
        c = np.asarray(c, dtype=float)
        g = np.asarray(dist.pdf(c, side="right"), dtype=float)
        G = np.asarray(dist.cdf(c), dtype=float)
        with np.errstate(all="ignore"):
            return np.where((g > 0) & (c > 0), G / (c * g), np.nan)

    x, v = _scan_min(ratio, *_scan(ratio, lo, hi, _landmarks(dist)))
    grid = np.linspace(lo, hi, 512)
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
        return {
            "theorem": self.theorem,
            "hypothesis_ok": self.hypothesis_ok,
            "notes": list(self.notes),
            "guarantee": self.guarantee,
            "benchmark_name": self.benchmark_name,
            "benchmark": self.benchmark,
            "revenue": self.revenue,
            "alpha": self.alpha,
            "ratio": self.ratio,
            "passed": self.passed,
            "degenerate": self.degenerate,
            "params": dict(self.params),
            "tolerance": self.tolerance,
        }


THEOREMS = (
    "universal",
    "slow",
    "lin_bounded_1",
    "lin_bounded_2",
    "upper_n",
    "smooth",
    "wel_implications",
    "rev_implications",
)


def _finish(
    theorem: str,
    hypothesis_ok: bool,
    notes: list[str],
    guarantee: float,
    benchmark_name: str,
    benchmark: float,
    revenue: float,
    alpha: float,
    params: dict,
) -> TheoremVerdict:
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


def _density_non_increasing(dist: TypeDistribution) -> bool:
    lo, hi = dist.c_low, dist.effective_high()
    grid = np.linspace(lo, hi, SCAN_POINTS)
    g = np.asarray(dist.pdf(grid, side="right"), dtype=float)
    scale = max(float(g.max()), 1e-300)
    return bool(np.all(np.diff(g) <= 1e-9 * scale))


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
    notes: list[str] = []
    hyp = True

    if theorem == "universal":
        q = 0.25 if q is None else q
        alpha = 0.5 if alpha is None else alpha
        if not (0 < q < 1 and 0 < alpha < 1):
            hyp, notes = False, notes + ["need q and alpha strictly inside (0, 1)"]
        c_q = dist.quantile(q)
        kap = c_q / alpha
        eta_rep = small_tail_eta(instance, dist, kap, "cost")
        eta_m = eta_rep.value
        if eta_m <= 0:
            hyp, notes = False, notes + [f"empty welfare tail above {kap:g}"]
        guarantee = 1.0 / ((1.0 - alpha) * eta_m * q) if hyp else math.inf
        wel = eta_rep.params["full"]
        rev = linear_revenue(instance, dist, alpha)
        return _finish(theorem, hyp, notes, guarantee, "welfare", wel, rev, alpha,
                       {"q": q, "c_q": c_q, "kappa": kap, "eta": eta_m})

    if theorem == "slow":
        alpha = 0.5 if alpha is None else alpha
        if kappa is None:
            kappa = dist.c_low / alpha
        if not 0 < alpha < 1:
            hyp, notes = False, notes + ["need alpha strictly inside (0, 1)"]
        if kappa < dist.c_low / alpha - 1e-12:
            hyp, notes = False, notes + ["kappa below c_low/alpha"]
        beta_m = beta if beta is not None else slowly_increasing_beta(dist, alpha, kappa).value
        eta_rep = small_tail_eta(instance, dist, kappa, "cost")
        eta_m = eta if eta is not None else eta_rep.value
        if beta_m <= 0 or eta_m <= 0:
            hyp, notes = False, notes + ["beta or eta vanishes"]
        guarantee = 1.0 / ((1.0 - alpha) * beta_m * eta_m) if hyp else math.inf
        rev = linear_revenue(instance, dist, alpha)
        return _finish(theorem, hyp, notes, guarantee, "welfare", eta_rep.params["full"], rev,
                       alpha, {"beta": beta_m, "eta": eta_m, "kappa": kappa})

    if theorem in ("lin_bounded_1", "lin_bounded_2"):
        kappa = dist.c_low if kappa is None else kappa
        try:
            lb = linear_bounded_params(dist, None, kappa)
        except AtomPresentError:
            return _finish(theorem, False, ["distribution has atoms"], math.inf,
                           "virtual_welfare", 0.0, 0.0, 0.0, {})
        alpha_m = lb.value
        beta_m = lb.params["beta"]
        if lb.params["beta_scan_truncated"]:
            beta_m = 0.0
            notes.append("unbounded support: beta taken as 0 beyond the scan")
        eta_rep = small_tail_eta(instance, dist, kappa, "virtual")
        eta_m = eta if eta is not None else eta_rep.value
        if alpha_m >= 1.0 - 1e-12 or eta_m <= 0:
            hyp, notes = False, notes + ["alpha reaches 1 or eta vanishes"]
        iv = ironed(dist)
        top_action = best_response(instance, instance.rewards, float(iv.value(iv.c_high))).action
        params = {"alpha": alpha_m, "beta": beta_m, "eta": eta_m, "kappa": kappa,
                  "top_action": int(top_action)}
        if theorem == "lin_bounded_2":
            if top_action != 0:
                hyp, notes = False, notes + ["highest type still incentivized to work"]
            guarantee = (1.0 - beta_m) / (eta_m * (1.0 - alpha_m)) if hyp else math.inf
        else:
            guarantee = 1.0 / (eta_m * (1.0 - alpha_m)) if hyp else math.inf
        rev = linear_revenue(instance, dist, alpha_m)
        return _finish(theorem, hyp, notes, guarantee, "virtual_welfare",
                       eta_rep.params["full"], rev, alpha_m, params)

    if theorem == "upper_n":
        if instance.n < 1:
            hyp, notes = False, notes + ["need at least one non-null action"]
        if dist.has_atoms:
            return _finish(theorem, False, ["distribution has atoms"], math.inf,
                           "virtual_welfare", 0.0, 0.0, 0.0, {})
        a_star, rev = best_linear(instance, dist)
        vwel = virtual_welfare(instance, dist)
        return _finish(theorem, hyp, notes, float(instance.n), "virtual_welfare",
                       vwel, rev, a_star, {"n": instance.n})

    if theorem == "smooth":
        if epsilon is None:
            raise ValueError("smooth verification needs epsilon")
        canonical = smoothed_point_mass(epsilon)
        probe = np.linspace(0.0, 2.0, 97)
        if not np.allclose(np.asarray(dist.cdf(probe)), np.asarray(canonical.cdf(probe)), atol=1e-9):
            hyp, notes = False, notes + ["distribution is not the smoothed point mass"]
        beta_closed = epsilon / (2.0 * (2.0 - epsilon))
        beta_m = slowly_increasing_beta(dist, 0.5, 0.0).value
        if beta_m < beta_closed - 1e-9:
            hyp, notes = False, notes + ["measured slow-increase beta below the closed form"]
        guarantee = 4.0 * (2.0 - epsilon) / epsilon
        wel = welfare(instance, dist)
        rev = linear_revenue(instance, dist, 0.5)
        return _finish(theorem, hyp, notes, guarantee, "welfare", wel, rev, 0.5,
                       {"epsilon": epsilon, "beta": beta_m, "beta_closed_form": beta_closed})

    if theorem == "wel_implications":
        if not _density_non_increasing(dist):
            hyp, notes = False, notes + ["density is not non-increasing"]
        if dist.c_low > 0:
            kappa = 3.0 if kappa is None else kappa
            if kappa <= 1.0:
                hyp, notes = False, notes + ["need kappa > 1"]
                kappa = 1.0 + 1e-9
            alpha_v = (kappa + 1.0) / (2.0 * kappa)
            threshold = kappa * dist.c_low
            eta_rep = small_tail_eta(instance, dist, threshold, "cost")
            eta_m = eta_rep.value
            guarantee = 4.0 * kappa / (eta_m * (kappa - 1.0)) if eta_m > 0 else math.inf
            if eta_m <= 0:
                hyp, notes = False, notes + ["empty welfare tail"]
            variant_used = "positive-low-support"
        else:
            alpha_v = 0.5
            threshold = 0.0
            eta_rep = small_tail_eta(instance, dist, threshold, "cost")
            eta_m = eta_rep.value
            guarantee = 4.0 / eta_m if eta_m > 0 else math.inf
            variant_used = "zero-low-support"
        rev = linear_revenue(instance, dist, alpha_v)
        return _finish(theorem, hyp, notes, guarantee, "welfare", eta_rep.params["full"],
                       rev, alpha_v,
                       {"kappa": kappa, "threshold": threshold, "eta": eta_m,
                        "variant": variant_used})

    if theorem == "rev_implications":
        if variant is None:
            raise ValueError("rev_implications needs a variant")
        if dist.has_atoms:
            return _finish(theorem, False, ["distribution has atoms"], math.inf,
                           "virtual_welfare", 0.0, 0.0, 0.0, {})
        iv = ironed(dist)
        lb = linear_bounded_params(dist, iv, dist.c_low)
        params: dict = {"variant": variant, "alpha_measured": lb.value,
                        "beta_measured": lb.params["beta"]}
        if variant == "uniform":
            if not (abs(lb.value - 0.5) <= 1e-6 and abs(lb.params["beta"] - 0.5) <= 1e-6):
                hyp, notes = False, notes + ["ironed virtual cost is not 2c"]
            alpha_v = 0.5
            top_action = best_response(instance, instance.rewards, float(iv.value(iv.c_high))).action
            params["top_action"] = int(top_action)
            guarantee = 1.0 if top_action == 0 else 2.0
        elif variant == "exponential":
            if not (_density_non_increasing(dist) and dist.c_low <= 1e-12):
                hyp, notes = False, notes + ["need non-increasing density on [0, inf)"]
            if lb.value > 0.5 + 1e-6:
                hyp, notes = False, notes + ["virtual cost dips below 2c"]
            alpha_v = 0.5
            guarantee = 2.0
        elif variant == "truncated_normal":
            part_ok = (
                len(dist.parts) == 1
                and not dist.atoms
                and type(dist.parts[0][1]).__name__ == "TruncatedNormalPart"
                and dist.parts[0][1].low == 0.0
                and dist.parts[0][1].sigma >= (5.0 / (2.0 * math.sqrt(2.0))) * dist.parts[0][1].mu - 1e-12
            )
            if not part_ok:
                hyp, notes = False, notes + ["not a zero-truncated normal with sigma >= 5/(2*sqrt(2)) mu"]
            if lb.value > 2.0 / 3.0 + 1e-6:
                hyp, notes = False, notes + ["virtual cost dips below 1.5c"]
            alpha_v = 2.0 / 3.0
            guarantee = 3.0
        elif variant == "non_increasing":
            kappa = 3.0 if kappa is None else kappa
            if dist.c_low <= 0 or kappa <= 1.0 or not _density_non_increasing(dist):
                hyp, notes = False, notes + ["need non-increasing density, c_low > 0, kappa > 1"]
            alpha_v = kappa / (2.0 * kappa - 1.0)
            threshold = kappa * dist.c_low
            eta_rep = small_tail_eta(instance, dist, threshold, "virtual")
            eta_m = eta_rep.value
            params.update({"kappa": kappa, "threshold": threshold, "eta": eta_m})
            guarantee = (2.0 * kappa - 1.0) / (eta_m * (kappa - 1.0)) if eta_m > 0 else math.inf
            if eta_m <= 0:
                hyp, notes = False, notes + ["empty virtual-welfare tail"]
        else:
            raise ValueError(f"unknown rev_implications variant '{variant}'")
        vwel = virtual_welfare(instance, dist, iv=iv)
        rev = linear_revenue(instance, dist, alpha_v)
        return _finish(theorem, hyp, notes, guarantee, "virtual_welfare", vwel, rev,
                       alpha_v, params)

    raise ValueError(f"unknown theorem '{theorem}' (choose from {', '.join(THEOREMS)})")
