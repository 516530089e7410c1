"""One benchmark operation per generated pair, with its correctness checks.

An operation returns the list of checks it failed (empty when every check
passed) and lets any exception from the program propagate; the runner
counts a raised operation as failed. Tolerances are the acceptance suite's:
closed forms match quadrature within ``rel 1e-6, abs 1e-9``, and theorem
inequalities carry the verdict tolerance ``1e-6``.
"""

from __future__ import annotations

from agency import (
    iron,
    linear_revenue,
    linear_revenue_quadrature,
    verify,
    virtual_rule,
    virtual_welfare,
    virtual_welfare_quadrature,
)

REL_TOL = 1e-6
ABS_TOL = 1e-9
VERDICT_TOL = 1e-6

_CORE = ("slow", "universal", "lin_bounded_1", "lin_bounded_2", "upper_n")

#: Verdicts run on each family of the theorem battery: the five core
#: guarantees everywhere, ``smooth`` on the smoothed point mass, and the
#: implication theorems on the exponential and truncated-normal families.
RUN = {
    "uniform": _CORE,
    "piecewise_down": _CORE,
    "exponential": _CORE + ("rev_implications", "wel_implications"),
    "truncated_normal": _CORE + ("rev_implications", "wel_implications"),
    "smoothed": _CORE + ("smooth",),
}

#: Verdicts whose hypotheses must hold on the family (the generator scales
#: every distribution so that they do). A verdict whose hypotheses hold
#: must pass; those listed in EXCLUDED must report unmet hypotheses: the
#: smoothed point mass has atoms, and a truncated normal with positive mean
#: has a density that rises near zero.
REQUIRED = {
    "uniform": _CORE,
    "piecewise_down": _CORE,
    "exponential": RUN["exponential"],
    "truncated_normal": _CORE + ("rev_implications",),
    "smoothed": ("slow", "smooth"),
}
EXCLUDED = {
    "truncated_normal": ("wel_implications",),
    "smoothed": ("lin_bounded_1", "lin_bounded_2", "upper_n"),
}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _verdict(pair, theorem: str):
    kwargs = {}
    if theorem == "smooth":
        kwargs["epsilon"] = pair.dist.parts[0][0]  # weight of the uniform noise
    if theorem == "rev_implications":
        kwargs["variant"] = pair.family
    return verify(pair.instance, pair.dist, theorem, **kwargs)


def _verdict_failures(family: str, theorem: str, v) -> list[str]:
    if v.hypothesis_ok:
        out = [] if v.passed else [f"verdict.{theorem}"]
        if theorem in EXCLUDED.get(family, ()):
            out.append(f"verdict.{theorem}.hypothesis")
        return out
    if theorem in REQUIRED.get(family, ()):
        return [f"verdict.{theorem}.hypothesis"]
    return []


def theorem_battery_op(pair) -> list[str]:
    """Every verdict for one pair plus one closed-form/quadrature check."""
    inst, dist = pair.instance, pair.dist
    failed: list[str] = []
    probes: list[float] = []
    best = None
    for theorem in RUN[pair.family]:
        v = _verdict(pair, theorem)
        failed += _verdict_failures(pair.family, theorem, v)
        if v.hypothesis_ok:
            probes.append(v.revenue)
        if theorem == "upper_n" and v.hypothesis_ok:
            best = v.revenue  # upper_n measures revenue at best_linear's share
            if v.benchmark < v.revenue * (1.0 - VERDICT_TOL):
                failed.append("vwel_ge_best_linear")
    lr = linear_revenue(inst, dist, pair.alpha)
    if not close(lr, linear_revenue_quadrature(inst, dist, pair.alpha)):
        failed.append("quadrature")
    probes.append(lr)
    if best is not None and any(best < rev - VERDICT_TOL * abs(rev) - ABS_TOL for rev in probes):
        failed.append("best_linear_ge_probes")
    return failed


def nonregular_op(pair) -> list[str]:
    """Ironing, the virtual-welfare rule and both virtual-welfare routes,
    then the verdicts that take virtual welfare as their benchmark.

    The ``upper_n`` verdict runs ``best_linear`` itself; its revenue is the
    optimal linear revenue, so the operation calls ``best_linear`` once.
    """
    inst, dist = pair.instance, pair.dist
    failed: list[str] = []
    iv = iron(dist)
    virtual_rule(inst, iv)
    vw = virtual_welfare(inst, dist, iv=iv)
    if not close(vw, virtual_welfare_quadrature(inst, dist, iv=iv)):
        failed.append("quadrature")
    best = None
    probes: list[float] = []
    for theorem in ("upper_n", "lin_bounded_1", "lin_bounded_2"):
        v = verify(inst, dist, theorem)
        if v.hypothesis_ok and not v.passed:
            failed.append(f"verdict.{theorem}")
        if theorem == "upper_n":
            best = v.revenue
            if vw < best * (1.0 - VERDICT_TOL):
                failed.append("vwel_ge_best_linear")
        elif v.hypothesis_ok:
            probes.append(v.revenue)
    if any(best < rev - VERDICT_TOL * abs(rev) - ABS_TOL for rev in probes):
        failed.append("best_linear_ge_probes")
    return failed
