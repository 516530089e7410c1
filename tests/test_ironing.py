"""Properties of quantile-space ironing on non-regular densities.

Three families reach the ironing flats: piecewise densities that step up,
two overlapping uniform bumps, and two uniform bumps with a zero-density
gap between them. On each, ironing must preserve the integrated virtual
cost ``∫ φ dG = c G(c)`` flat by flat and over the whole support, and the
optimal virtual welfare must upper-bound the revenue of IC contracts: the
best linear one and, with two actions, the optimal menu.

These families have piecewise-constant densities, so ``iron`` takes its
exact route: every flat's level and ends are closed forms of the kink
table, which must solve the virtual cost and the tangent problem to
rounding, with no hull and no search. Their grid-route twins, with a
truncated normal for the top step or bump, must reach the same hull and
flats as the plain monotone chain in ``oracles.py`` and invert bit for bit
like one bisection round per call.
"""

import json
import os

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agency import (
    best_linear,
    binary_action_optimal,
    exponential,
    from_spec,
    iron,
    menu_revenue,
    mixture,
    piecewise,
    truncated_normal,
    uniform,
    virtual_welfare,
)
from agency.conditions import VERDICT_TOL
from agency.metrics import _phibar_mass_integral
from agency import typedist
from agency.typedist import IronedVirtualCost, _exact, _lower_hull

from conftest import battery, random_binary_action_instance, random_instance, welfare_top
from oracles import bisect_one_round_per_call, hull_flats, monotone_chain_hull

FAMILIES = ("step_up", "bumps", "gapped_bumps")
shares = st.floats(0.0, 1.0)


@st.composite
def nonregular(draw, hi: float, grid: bool = False):
    """A non-regular density on ``[0, hi]`` from one of the three families;
    with ``grid``, its top step or upper bump is mixed with or replaced by
    a half-normal from the same point, so ``iron`` takes the grid route."""
    family = draw(st.sampled_from(FAMILIES))
    u = [draw(shares) for _ in range(4)]
    if family == "step_up":
        cuts = np.array([0.1 + 0.35 * u[0], 0.55 + 0.35 * u[1]]) * hi
        bounds = np.concatenate([[0.0], cuts, [hi]])
        heights = np.array([1.0, 1.5 + u[2], 2.5 + 2.0 * u[3]])
        dens = heights / float(np.dot(heights, np.diff(bounds)))
        steps = piecewise(zip(bounds[:-1], bounds[1:], dens))
        return mixture([(0.7, steps), (0.3, truncated_normal(cuts[1], 0.1 * hi, cuts[1]))]) if grid else steps
    a_hi = (0.35 + 0.25 * u[0]) * hi
    w = 0.2 + 0.3 * u[1]
    if family == "bumps":
        b_lo = (0.4 + 0.5 * u[2]) * a_hi
    else:
        b_lo = a_hi + (0.05 + 0.15 * u[2]) * (hi - a_hi)
    upper = truncated_normal(b_lo, 0.25 * (hi - b_lo), b_lo) if grid else uniform(b_lo, hi)
    return mixture([(w, uniform(0.0, a_hi)), (1.0 - w, upper)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hi=st.floats(1.0, 20.0))
def test_inverse_matches_one_round_per_call_at_flats_and_kinks(data, hi):
    # where a first prediction is most often refuted: every flat's level, and
    # the ironed virtual cost at every flat end and density kink; together,
    # then one at a time on a copy with no solved levels
    dist = data.draw(nonregular(hi, grid=True))
    iv = iron(dist)
    points = np.asarray([*(end for flat in iv.flats for end in flat[:2]), *dist.kinks()])
    levels = np.unique([*(level for *_, level in iv.flats), *iv.value(points)])
    for batch in (levels, *levels[:, None]):
        assert replace(iv).inverse(batch).tolist() == bisect_one_round_per_call(iv, batch).tolist()


def scaled(draw_seed: int, binary: bool):
    rng = np.random.default_rng(draw_seed)
    inst = random_binary_action_instance(rng) if binary else random_instance(rng, 3, 3)
    return inst, (1.2 + 0.4 * float(rng.random())) * welfare_top(inst)


def c_times_G(dist, c: float) -> float:
    return c * float(dist.cdf(c))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hi=st.floats(1.0, 20.0))
def test_flat_levels_preserve_integrated_virtual_cost(data, hi):
    dist = data.draw(nonregular(hi))
    iv = iron(dist)
    assert iv.flats
    for lo, up, level in iv.flats:
        mass = float(dist.cdf(up)) - float(dist.cdf(lo))
        assert level * mass == pytest.approx(c_times_G(dist, up) - c_times_G(dist, lo), rel=1e-12, abs=1e-15)
    assert np.all(np.diff(iv.values) >= 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hi=st.floats(1.0, 20.0))
def test_phibar_mass_over_support_is_c_times_G(data, hi):
    dist = data.draw(nonregular(hi))
    iv = iron(dist)
    total = _phibar_mass_integral(dist, iv, iv.c_low, iv.c_high)
    expected = c_times_G(dist, iv.c_high) - c_times_G(dist, iv.c_low)
    assert total == pytest.approx(expected, rel=1e-12)


def _assert_upper_bound(vw: float, revenue: float) -> None:
    assert vw >= revenue - VERDICT_TOL * abs(revenue)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_virtual_welfare_bounds_best_linear(data, seed):
    inst, hi = scaled(seed, binary=False)
    dist = data.draw(nonregular(hi))
    _, revenue = best_linear(inst, dist)
    _assert_upper_bound(virtual_welfare(inst, dist), revenue)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_virtual_welfare_bounds_binary_action_optimal(data, seed):
    inst, hi = scaled(seed, binary=True)
    dist = data.draw(nonregular(hi))
    vw = virtual_welfare(inst, dist)
    _assert_upper_bound(vw, menu_revenue(inst, dist, binary_action_optimal(inst, dist)))
    _assert_upper_bound(vw, best_linear(inst, dist)[1])


def test_step_up_flat_is_the_dG_mean():
    # φ = 2c on (0, 5) and c + G/0.5 on (5, 6): the exact hull is the common
    # tangent of slope 5 + √5, touching at c = (5 + √5)/2 and 2 above it;
    # the cost-space hull put a flat [4, 6] at 8.0 instead
    dist = piecewise([(0, 5, 0.1), (5, 6, 0.5)])
    (lo, up, level), = iron(dist).flats
    assert level == pytest.approx(5.0 + np.sqrt(5.0), rel=1e-12)
    touch = (5.0 + np.sqrt(5.0)) / 2.0
    assert (lo, up) == pytest.approx((touch, touch + 2.0), rel=1e-12)
    # independent midpoint quadrature of φ g over the flat, split at the kink
    # so that no panel straddles it: φ g is linear on each panel
    edges = [np.linspace(a, b, 100_001) for a, b in ((lo, 5.0), (5.0, up))]
    mid = np.concatenate([0.5 * (e[:-1] + e[1:]) for e in edges])
    weights = np.asarray(dist.pdf(mid)) * np.concatenate([np.diff(e) for e in edges])
    mean = float(np.sum(np.asarray(dist.virtual_cost(mid)) * weights) / np.sum(weights))
    assert level == pytest.approx(mean, rel=1e-12)


def test_gapped_mixture_irons_across_the_gap():
    dist = mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))])
    iv = iron(dist)
    (lo, up, level), = iv.flats
    # tangent from (G, cG) = (0.4, 1.2) to the upper bump
    assert lo == 3.0
    assert up == pytest.approx(5.0 + np.sqrt(0.12) / 0.15, rel=1e-12)
    assert level == pytest.approx(23.0 / 3.0 + 8.0 / np.sqrt(3.0), rel=1e-12)
    # the gap is inside the flat, and the flat's left end uses the left density
    vals = np.asarray(iv.value(np.linspace(0.0, 9.0, 2001)))
    assert np.all(np.diff(vals) >= -1e-12)
    assert iv.value(4.0) == level
    assert iv.value(3.0) == pytest.approx(6.0)


@pytest.mark.parametrize("segments", [[(0, 1, 0), (1, 2, 1)], [(0, 1, 1), (1, 2, 0)]])
def test_zero_density_at_a_support_end(segments):
    # no mass on [0, 1] (or [1, 2]): the ironing grid spans only the mass
    dist = piecewise(segments)
    iv = iron(dist)
    assert (iv.c_low, iv.c_high) == ((1.0, 2.0) if segments[0][2] == 0 else (0.0, 1.0))
    assert np.all(np.diff(iv.values) >= 0)
    for seed in range(3):
        inst, _ = scaled(seed, binary=False)
        _assert_upper_bound(virtual_welfare(inst, dist), best_linear(inst, dist)[1])


#: Piecewise-constant densities whose virtual cost dips, so ``iron`` takes
#: the exact route: the two canonical examples above, a two-bump mixture and
#: a step up at 1.
EXACT_DISTS = {
    "step_up": piecewise([(0, 5, 0.1), (5, 6, 0.5)]),
    "gapped": mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))]),
    "two_bump": mixture([(0.4, uniform(0, 3)), (0.6, uniform(2, 5))]),
    "step_up_at_1": piecewise([(0, 1, 0.2), (1, 2, 0.8)]),
}

#: Their grid-route twins, whose virtual cost dips where a truncated normal
#: starts or overlaps: ``iron`` takes the hull.
HULL_DISTS = {
    "step_up": mixture([(0.5, uniform(0, 5)), (0.5, truncated_normal(5, 0.5, 5))]),
    "gapped": mixture([(0.4, uniform(0, 3)), (0.6, truncated_normal(7, 1, 5))]),
    "two_bump": mixture([(0.4, truncated_normal(1, 0.3, 0)), (0.6, truncated_normal(6, 0.5, 0))]),
    "step_up_at_1": mixture([(0.2, uniform(0, 1)), (0.8, truncated_normal(1, 0.5, 1))]),
}

#: Regular densities, whose chord slopes already increase: ``iron`` skips
#: the hull, but their points are long convex runs for it.
REGULAR_DISTS = {
    "uniform": uniform(0, 2),
    "exponential": exponential(1.0),
    "truncated_normal": truncated_normal(1, 2, 0),
    "counterexample": piecewise([(0, 1, 20 / 23), (1, 4, 0.025 * 20 / 23), (4, 10, 0.0125 * 20 / 23)]),
    "zero_density_low_end": piecewise([(0, 1, 0), (1, 2, 1)]),
    "zero_density_high_end": piecewise([(0, 1, 1), (1, 2, 0)]),
    **{f"battery_{k}": dist for k, (_, dist) in enumerate(battery(0, 8))},
}


def assert_hull_matches_oracle(dist, flats: bool) -> None:
    """The hull of ``iron(dist)``'s points ``(G, c G)`` is the plain chain's,
    and with ``flats`` so are its flats, tuple for tuple."""
    iv = iron(dist)
    G = np.asarray(dist.cdf(iv.grid), dtype=float)
    cG = iv.grid * G
    hull = monotone_chain_hull(G, cG)
    assert _lower_hull(G, cG) == hull
    if flats:
        assert iv.flats and iv.flats == hull_flats(iv.grid, G, cG, hull)


@pytest.mark.parametrize("name", HULL_DISTS)
def test_hull_and_flats_match_the_monotone_chain(name):
    assert_hull_matches_oracle(HULL_DISTS[name], flats=True)


@pytest.mark.parametrize("name", REGULAR_DISTS)
def test_hull_matches_the_monotone_chain_on_regular_points(name):
    assert_hull_matches_oracle(REGULAR_DISTS[name], flats=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hi=st.floats(1.0, 20.0))
def test_hull_and_flats_match_the_monotone_chain_on_the_families(data, hi):
    assert_hull_matches_oracle(data.draw(nonregular(hi, grid=True)), flats=True)


def library_nonregular():
    """The non-regular golden library pairs' distributions (``bench/gen.py``)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "library_pairs.json")
    with open(path, encoding="utf-8") as fh:
        dists = [from_spec(pair["dist"]) for pair in json.load(fh)]
    return [dist for dist in dists if _exact(dist) and iron(dist).flats]


def assert_exact_flats(dist) -> None:
    """Every flat of ``iron(dist)`` solves its tangent problem to rounding:
    an end inside a cell has virtual cost equal to the level, both ends
    attain the least ``(c - L) G(c)`` over a scan of the support, and the
    level is the dG-weighted mean of the virtual cost over the flat."""
    iv = iron(dist)
    assert _exact(dist) and iv.flats
    kinks = set(dist.kinks())
    scan = np.linspace(iv.c_low, iv.c_high, 20_001)
    for lo, up, level in iv.flats:
        tol = 1e-12 * max(1.0, abs(level))
        for end in {lo, up} - kinks:
            assert abs(dist.virtual_cost(end) - level) <= tol
        ends = [(end - level) * float(dist.cdf(end)) for end in (lo, up)]
        assert ends[0] == pytest.approx(ends[1], rel=1e-12, abs=1e-15)
        assert np.min((scan - level) * np.asarray(dist.cdf(scan))) >= min(ends) - tol
        mass = float(dist.cdf(up)) - float(dist.cdf(lo))
        assert level * mass == pytest.approx(c_times_G(dist, up) - c_times_G(dist, lo), rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), hi=st.floats(1.0, 20.0))
def test_exact_flats_solve_the_tangent_problem_on_the_families(data, hi):
    assert_exact_flats(data.draw(nonregular(hi)))


def test_exact_flats_solve_the_tangent_problem_on_the_library_pairs():
    dists = library_nonregular()
    assert len(dists) >= 20
    for dist in [*dists, *EXACT_DISTS.values()]:
        assert_exact_flats(dist)


@pytest.mark.parametrize("name", EXACT_DISTS)
def test_exact_route_builds_no_hull_and_inverts_without_search(name, monkeypatch):
    # a grid-route twin reaches the hull and the bisection; the exact route
    # reaches neither, and its inverse makes no value call either
    calls = []
    for fn in ("_lower_hull", "_bisect"):
        wrapped = getattr(typedist, fn)
        monkeypatch.setattr(typedist, fn, lambda *a, fn=fn, f=wrapped: calls.append(fn) or f(*a))
    value = IronedVirtualCost.value
    monkeypatch.setattr(IronedVirtualCost, "value", lambda iv, c: calls.append("value") or value(iv, c))
    twin = iron(HULL_DISTS[name])
    twin.inverse(np.asarray([level for *_, level in twin.flats]))
    assert {"_lower_hull", "_bisect", "value"} <= set(calls)
    calls.clear()
    iv = iron(EXACT_DISTS[name])
    levels = np.concatenate([[level for *_, level in iv.flats], np.linspace(iv.values[0] - 1, iv.values[-1] + 1, 50)])
    iv.inverse(levels)
    assert calls == []


@pytest.mark.parametrize("name", EXACT_DISTS)
def test_exact_inverse_round_trips(name):
    # off the flats the inverse undoes the value; a flat's level gives the
    # flat's top; levels past the range clamp to its ends
    iv = iron(EXACT_DISTS[name])
    cs = np.linspace(iv.c_low, iv.c_high, 2001)
    off = np.all([(cs < lo) | (cs > up) for lo, up, _ in iv.flats], axis=0)
    assert np.asarray(iv.inverse(iv.value(cs[off]))) == pytest.approx(cs[off], rel=1e-12, abs=1e-12)
    for lo, up, level in iv.flats:
        assert iv.inverse(level) == up
    assert iv.inverse(iv.values[0] - 1.0) == iv.c_low and iv.inverse(iv.values[-1]) == iv.c_high


@st.composite
def chains(draw):
    """Points sorted by x from runs of convex, concave and collinear steps
    on an integer lattice, and vertical steps (repeated x, as a zero-density
    gap gives); scaled by 0.1 or 1/3, collinear turns round to either sign."""
    x, y, slope = [0], [0], 0
    for kind in draw(st.lists(st.sampled_from(("convex", "concave", "line", "vertical")), min_size=1, max_size=8)):
        for _ in range(draw(st.integers(1, 6))):
            if kind == "vertical":
                x.append(x[-1])
                y.append(y[-1] + draw(st.integers(0, 3)))
                continue
            slope += {"convex": 1, "concave": -1, "line": 0}[kind] * draw(st.integers(1, 3))
            dx = draw(st.integers(1, 3))
            x.append(x[-1] + dx)
            y.append(y[-1] + slope * dx)
    scale = draw(st.sampled_from((1.0, 0.1, 1.0 / 3.0)))
    return np.asarray(x, dtype=float) * scale, np.asarray(y, dtype=float) * scale


def _points(*xy):
    return tuple(np.asarray(v, dtype=float) for v in zip(*xy))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points=chains())
@example(points=_points((0, 0), (1, 1)))
@example(points=_points((0, 0), (1, 1), (2, 2)))
@example(points=_points((0, 0), (1, 1), (2, 0)))
@example(points=_points((0, 0), (1, 0), (2, 1)))
@example(points=_points((0, 0), (0, 1), (1, 1)))
def test_lower_hull_matches_the_monotone_chain(points):
    assert _lower_hull(*points) == monotone_chain_hull(*points)
