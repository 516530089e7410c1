import json
import math
import os

import numpy as np
import pytest

from agency import (
    Instance,
    IronedVirtualCost,
    TypeDistribution,
    best_linear,
    envelope_rule,
    from_spec,
    iron,
    ironed,
    linear_revenue,
    linear_revenue_quadrature,
    mixture,
    piecewise,
    point_mass,
    smoothed_point_mass,
    truncated_normal,
    uniform,
    virtual_rule,
    virtual_welfare,
    virtual_welfare_quadrature,
    welfare,
)
from agency import metrics
from agency.examples import gap, minimal_linear_alpha, smoothed
from agency.instance import best_responses
from agency import allocation
from agency.metrics import integrate_against
from agency.typedist import _exact

from conftest import battery, random_instance, scaled_distribution, welfare_top
from oracles import exact_best_linear, exact_revenue, golden_section_one_step_per_call, welfare_crossings

LIBRARY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "library_pairs.json")


def polish_pairs():
    """The 48 golden library pairs plus pairs whose types carry atoms."""
    with open(LIBRARY, encoding="utf-8") as fh:
        pairs = [(Instance(**p["instance"]), from_spec(p["dist"])) for p in json.load(fh)]
    atoms = [(inst, smoothed_point_mass(eps)) for (inst, _), eps in zip(battery(3, 8), np.linspace(0.05, 0.6, 8))]
    atoms += [(inst, mixture([(0.5, point_mass(0.5 * dist.effective_high())), (0.5, dist)]))
              for inst, dist in battery(4, 4)]
    return pairs + atoms


def grid_pairs():
    """The :func:`polish_pairs` that :func:`best_linear` scans: not on the exact route."""
    pairs = [(inst, dist) for inst, dist in polish_pairs() if not _exact(dist)]
    assert len(pairs) >= 20
    return pairs


def exact_pairs():
    """Exact-route pairs (atom-free uniform and piecewise types): the
    conftest battery's and the library's, and uniform, three-step (down and
    up), two-bump and gapped two-bump pairs built as ``bench/gen.py`` builds
    them, on conftest instances."""
    with open(LIBRARY, encoding="utf-8") as fh:
        pairs = [(Instance(**p["instance"]), from_spec(p["dist"])) for p in json.load(fh)]
    pairs += battery(13, 24)
    rng = np.random.default_rng(40)

    def steps(hi, heights):
        bounds = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)) * hi, [hi]])
        dens = heights / float(np.dot(heights, np.diff(bounds)))
        return piecewise(zip(bounds[:-1], bounds[1:], dens))

    for k in range(40):
        inst = random_instance(rng)
        hi = float(rng.uniform(1.2, 1.8)) * welfare_top(inst)
        a_hi, w = float(rng.uniform(0.35, 0.6)) * hi, float(rng.uniform(0.2, 0.5))
        b_lo = (float(rng.uniform(0.4, 0.9)) * a_hi if k % 5 == 3  # overlapping bumps, else gapped ones
                else a_hi + float(rng.uniform(0.05, 0.2)) * (hi - a_hi))
        bumps = mixture([(w, uniform(0.0, a_hi)), (1.0 - w, uniform(b_lo, hi))])
        pairs.append((inst, [uniform(0.0, hi), steps(hi, np.sort(rng.uniform(0.2, 1.0, 3))[::-1]),
                             steps(hi, np.sort(rng.uniform(0.1, 1.0, 3)) * [1.0, 2.0, 3.0]), bumps, bumps][k % 5]))
    return [(inst, dist) for inst, dist in pairs if _exact(dist)]


def null_only_instance():
    return Instance(gammas=(0.0,), rewards=(0.0, 1.0), outcome_probs=((1.0, 0.0),))


class TestLinearRevenue:
    def test_atoms_priced_like_per_share_payments(self, monkeypatch):
        # the atoms' expected payments for every share keep the bits of one
        # ``expected_payments`` call per share
        seen = []
        monkeypatch.setattr(metrics, "add_atom_revenue", lambda total, inst, dist, T: seen.append(T) or total)
        al = np.linspace(0.0, 1.0, 2001)
        for inst, dist in polish_pairs()[48:]:
            linear_revenue(inst, dist, al)
            r = inst.reward_array()
            want = np.array([inst.expected_payments(x * r) for x in al])[:, None, :]
            assert seen.pop().tobytes() == want.tobytes()

    def test_welfare_envelope_built_once_per_instance(self, monkeypatch, rng):
        # every share, the welfare, the virtual rule and the best share take
        # their actions from one all-costs envelope, kept on the instance
        # (``instance.kept``)
        built = []
        rule = allocation.envelope_rule
        monkeypatch.setattr(allocation, "envelope_rule", lambda inst, *args: built.append(args) or rule(inst, *args))
        inst, dist = random_instance(rng), uniform(0.1, 5.0)
        for a in np.linspace(0.0, 1.0, 40):
            linear_revenue(inst, dist, float(a))
        linear_revenue(inst, dist, np.linspace(0.0, 1.0, 40))
        welfare(inst, dist)
        virtual_rule(inst, ironed(dist))
        best_linear(inst, dist)
        assert built == [(1.0, (0.0, math.inf))]

    def test_full_giveaway_and_null(self, rng):
        inst = random_instance(rng)
        dist = uniform(0.1, 5.0)
        assert linear_revenue(inst, dist, 1.0) == 0.0
        assert linear_revenue(inst, dist, 0.0) == 0.0

    def test_gap_example_unit_revenue_at_kinks(self):
        # minimal incentivizing shares extract exactly one unit from the atom
        ex = gap(n=5, delta=0.05)
        pm = ex.distributions["point_mass"]
        for i in range(2, 6):
            a_i = minimal_linear_alpha(ex, i, 1.0)
            assert linear_revenue(ex.instance, pm, a_i) == pytest.approx(1.0, rel=1e-6)
        a_1 = minimal_linear_alpha(ex, 1, 1.0)
        assert linear_revenue(ex.instance, pm, a_1) == pytest.approx(2.0 - 0.05, rel=1e-9)

    def test_matches_quadrature(self, rng):
        for inst, dist in battery(11, 8):
            alpha = float(rng.uniform(0.05, 0.95))
            cf = linear_revenue(inst, dist, alpha)
            qd = linear_revenue_quadrature(inst, dist, alpha)
            assert cf == pytest.approx(qd, rel=1e-6, abs=1e-9)


def per_share_revenue(inst, dist, alpha):
    """Reference route, one share at a time: the share's own envelope rule,
    two CDF calls per piece, then the atoms one by one."""
    lo, hi = dist.c_low, dist.effective_high()
    if hi <= lo:
        hi = lo + 1.0
    R = inst.expected_reward_array()
    total = 0.0
    for seg_lo, seg_hi, action in envelope_rule(inst, alpha, (lo, hi)).intervals():
        mass = float(dist.cdf_continuous(seg_hi)) - float(dist.cdf_continuous(seg_lo))
        total += mass * (1.0 - alpha) * R[action]
    if dist.atoms:
        T = inst.expected_payments(alpha * inst.reward_array())
        locs = [loc for loc, _ in dist.atoms]
        acts = best_responses(T[None, :], locs, inst.gamma_array(), R)
        for (_, mass), a in zip(dist.atoms, acts):
            total += mass * float(R[a] - T[a])
    return total


def kink_shares(inst, dist):
    """Shares where the revenue curve kinks: landmark over welfare crossing."""
    lands = [dist.c_low, dist.effective_high(), *(k for k in dist.kinks() if math.isfinite(k))]
    return [q / z for q in lands for z in welfare_crossings(inst) if 0 < q / z <= 1]


def revenue_curve_pairs():
    ex = smoothed(0.1)
    gp = gap(n=5, delta=0.05)
    return battery(11, 8) + [(ex.instance, ex.distributions["smoothed"]),
                             (gp.instance, gp.distributions["point_mass"])]


class TestRevenueCurve:
    @pytest.mark.parametrize("k", range(10))
    def test_array_matches_per_share_bit_for_bit(self, k):
        inst, dist = revenue_curve_pairs()[k]
        shares = np.asarray([0.0, 1.0, *kink_shares(inst, dist), *np.linspace(0.0, 1.0, 41)])
        got = linear_revenue(inst, dist, shares)
        assert isinstance(got, np.ndarray) and got.shape == shares.shape
        assert got.tolist() == [per_share_revenue(inst, dist, float(a)) for a in shares]

    def test_scalar_share_returns_float(self):
        inst, dist = revenue_curve_pairs()[-2]
        got = linear_revenue(inst, dist, 0.3)
        assert type(got) is float
        assert got == linear_revenue(inst, dist, np.asarray([0.3]))[0]

    def test_one_bad_share_raises(self):
        inst, dist = battery(11, 1)[0]
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                linear_revenue(inst, dist, np.asarray([0.2, bad, 0.4]))

    def test_quadrature_rejects_share_above_one(self):
        inst, dist = battery(11, 1)[0]
        for route in (linear_revenue, linear_revenue_quadrature):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                route(inst, dist, 1.5)


class TestWelfare:
    def test_null_only(self):
        assert welfare(null_only_instance(), uniform(0, 1)) == 0.0

    def test_gap_atom_value(self):
        # scale small enough for float64 to resolve the reward/effort gap
        ex = gap(n=5, delta=0.1)
        w = welfare(ex.instance, ex.distributions["point_mass"])
        assert w == pytest.approx(5 + 1 - 0.1 * 5, abs=1e-9)

    def test_monte_carlo(self, rng):
        inst = random_instance(rng)
        dist = scaled_distribution(rng, inst, 0)
        w = welfare(inst, dist)
        s = dist.sample(rng, 1_000_000)
        R = inst.expected_reward_array()
        g = inst.gamma_array()
        vals = np.max(R[None, :] - g[None, :] * s[:, None], axis=1)
        se = vals.std() / math.sqrt(len(s))
        assert abs(w - vals.mean()) < 3 * se + 1e-9

    def test_additivity(self, rng):
        for inst, dist in battery(12, 4):
            hi = dist.effective_high()
            a, b, c = dist.c_low, dist.c_low + 0.37 * (hi - dist.c_low), hi
            left = welfare(inst, dist, (a, b))
            right = welfare(inst, dist, (b, c))
            assert left + right == pytest.approx(welfare(inst, dist, (a, c)), abs=1e-9 * max(1, hi))

    def test_one_pdf_call_per_integral(self, monkeypatch):
        calls = []
        pdf = TypeDistribution.pdf
        monkeypatch.setattr(TypeDistribution, "pdf", lambda self, x, side="right": calls.append(x) or pdf(self, x, side))
        dist = piecewise([(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.2)])
        total = integrate_against(dist, lambda c: c * c, 0.0, 3.0, extra_breaks=(0.5, 2.5))
        assert len(calls) == 1 and calls[0].shape == (5 * (2 * metrics.SIMPSON_PANELS + 1),)
        assert total == pytest.approx(0.5 / 3 + 0.3 * 7 / 3 + 0.2 * 19 / 3, rel=1e-12)
        inst, dist = battery(12, 1)[0]
        welfare(inst, dist)
        assert len(calls) == 2


class TestVirtualWelfare:
    def test_null_only(self):
        assert virtual_welfare(null_only_instance(), uniform(0, 1)) == 0.0

    def test_uniform_closed_vs_quadrature(self, rng):
        inst = random_instance(rng, n=3)
        dist = uniform(0.0, 1.3 * welfare_top(inst))
        assert virtual_welfare(inst, dist) == pytest.approx(
            virtual_welfare_quadrature(inst, dist), rel=1e-6
        )

    def test_battery_closed_vs_quadrature(self):
        for inst, dist in battery(13, 8):
            cf = virtual_welfare(inst, dist)
            qd = virtual_welfare_quadrature(inst, dist)
            assert cf == pytest.approx(qd, rel=1e-6, abs=1e-9)
            kappa = dist.c_low + 0.3 * (dist.effective_high() - dist.c_low)
            cf_t = virtual_welfare(inst, dist, (kappa, math.inf))
            qd_t = virtual_welfare_quadrature(inst, dist, (kappa, math.inf))
            assert cf_t == pytest.approx(qd_t, rel=1e-6, abs=1e-9)

    def test_uniform_linear_contract_is_revenue_optimal(self, rng):
        # when the top type is never incentivized, the half share extracts
        # the whole virtual welfare
        for _ in range(5):
            inst = random_instance(rng)
            dist = uniform(0.0, welfare_top(inst))
            rev = linear_revenue(inst, dist, 0.5)
            vwel = virtual_welfare(inst, dist)
            assert rev == pytest.approx(vwel, rel=1e-6)

    def test_one_cdf_call(self, monkeypatch):
        # the rule's interval ends and the flat ends go to one array call;
        # the expected values come from a second ironed object, so the
        # counted calls run on one that has kept no virtual welfare
        d = 20.0 / 23.0
        pairs = battery(13, 3) + [(battery(13, 1)[0][0], piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)]))]
        for inst, dist in pairs:
            iv, other = iron(dist), iron(dist)
            rule = virtual_rule(inst, iv)
            expected = (virtual_welfare(inst, dist, iv=other), virtual_welfare(inst, dist, (1.0, math.inf), iv=other))
            calls = []
            cdf = TypeDistribution.cdf
            monkeypatch.setattr(metrics, "virtual_rule", lambda *_: rule)
            monkeypatch.setattr(TypeDistribution, "cdf", lambda self, x: calls.append(x) or cdf(self, x))
            assert (virtual_welfare(inst, dist, iv=iv), virtual_welfare(inst, dist, (1.0, math.inf), iv=iv)) == expected
            assert len(calls) == 2
            monkeypatch.undo()

    def test_literal_breakpoint_sums(self):
        # hand-sized instance where every action is allocated: the interval
        # sums must reproduce the telescoped breakpoint expressions exactly
        inst = Instance(
            gammas=(0, 1, 3, 5.5),
            rewards=(0, 100, 300),
            outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.5, 0.5), (0, 0, 1)),
        )
        dist = uniform(0.0, 120.0)
        iv = iron(dist)
        rule = virtual_rule(inst, iv)
        assert rule.actions == (0, 1, 2, 3)
        z = rule.breakpoints  # descending: c_high, z1, z2, z3, c_low
        R = inst.expected_reward_array()
        g = inst.gamma_array()
        G = lambda c: float(dist.cdf(c))
        literal = sum(
            G(z[k]) * ((R[a + 1] - R[a]) - z[k] * (g[a + 1] - g[a]))
            for k, a in ((3, 2), (2, 1), (1, 0))
        )
        assert virtual_welfare(inst, dist) == pytest.approx(literal, rel=1e-12)
        # tail version including the boundary correction
        kappa = 17.0
        x_k = rule.action_at(kappa)
        literal_tail = sum(
            G(z[k]) * ((R[a + 1] - R[a]) - z[k] * (g[a + 1] - g[a]))
            for k, a in ((3, 2), (2, 1), (1, 0))
            if z[k] >= kappa
        ) - G(kappa) * (R[x_k] - g[x_k] * kappa)
        assert virtual_welfare(inst, dist, (kappa, math.inf)) == pytest.approx(
            literal_tail, rel=1e-12
        )
        # the linear-revenue breakpoint sum at the matching share
        alpha = 0.37
        rule_a = envelope_rule(inst, alpha, (0.0, 120.0))
        za = rule_a.breakpoints
        literal_apx = sum(
            G(za[k]) * (1 - alpha) * (R[a + 1] - R[a]) for k, a in ((3, 2), (2, 1), (1, 0))
        )
        assert linear_revenue(inst, dist, alpha) == pytest.approx(literal_apx, rel=1e-12)


class TestMetricsBundle:
    def test_ordering_invariants(self):
        from agency import compute_metrics

        for inst, dist in battery(14, 4):
            m = compute_metrics(inst, dist)
            assert m.vwel <= m.wel + 1e-9 * max(1.0, m.wel)
            assert m.revenue_best <= m.wel + 1e-9 * max(1.0, m.wel)
            for _, rev in m.apx_at:
                assert rev <= m.wel + 1e-9 * max(1.0, m.wel)
            assert math.isfinite(m.wel) and math.isfinite(m.revenue_best)


class TestBestLinear:
    def test_gap_point_mass_keeps_every_envelope_crossing(self):
        # gap(10, 0.01)'s welfare crossings approach 1 as 1 + 0.01**k, down
        # to 2.2e-16 apart: the envelope keeps all nine, and the share just
        # below 1 extracts the full revenue 2 from the atom
        ex = gap(n=10, delta=0.01)
        assert len(allocation.welfare_envelope(ex.instance).breakpoints) == 11
        assert best_linear(ex.instance, ex.distributions["point_mass"]) == (0.9999999999999998, 2.0)

    def test_single_action_point_mass_closed_form(self, rng):
        for _ in range(5):
            r1 = float(rng.uniform(2, 9))
            g1 = float(rng.uniform(0.3, 1.0))
            c = float(rng.uniform(0.5, 2.0))
            inst = Instance(gammas=(0.0, g1), rewards=(0.0, r1),
                            outcome_probs=((1.0, 0.0), (0.0, 1.0)))
            if g1 * c / r1 >= 1:
                continue
            a_star, rev = best_linear(inst, point_mass(c))
            assert a_star == pytest.approx(g1 * c / r1, abs=1e-9)
            assert rev == pytest.approx((1 - g1 * c / r1) * r1, rel=1e-9)
            # dense sweep oracle: one array call, bit-equal to per-share calls
            # (TestRevenueCurve)
            sweep = float(linear_revenue(inst, point_mass(c), np.linspace(0, 1, 20001)).max())
            assert rev >= sweep - 1e-9

    @staticmethod
    def one_walk_pairs():
        d = 20.0 / 23.0
        return battery(13, 4) + [(Instance(gammas=(0, 1, 3, 5.5), rewards=(0, 100, 300),
                                           outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.5, 0.5), (0, 0, 1))),
                                  piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)]))]

    def test_best_linear_never_irons(self, monkeypatch):
        # its candidate shares come from G's own landmarks, not from ironing
        solved = []
        bisect = IronedVirtualCost._bisect
        monkeypatch.setattr(IronedVirtualCost, "_bisect", lambda iv, q: solved.append(len(q)) or bisect(iv, q))
        ironed.cache_clear()
        for inst, dist in self.one_walk_pairs():
            best_linear(inst, dist)
        assert ironed.cache_info().currsize == 0 and solved == []

    def test_best_linear_after_virtual_rule_runs_no_bisection(self, monkeypatch):
        # the virtual rule inverts its envelope's breakpoints once, in one
        # bisection on the grid route and in none on the exact route (the
        # uniform and piecewise pairs); best_linear then inverts nothing
        solved = []
        bisect = IronedVirtualCost._bisect
        monkeypatch.setattr(IronedVirtualCost, "_bisect", lambda iv, q: solved.append(len(q)) or bisect(iv, q))
        ironed.cache_clear()
        inst = self.one_walk_pairs()[-1][0]
        gapped = mixture([(0.4, uniform(0, 30)), (0.6, truncated_normal(70, 10, 50))])  # a flat across the gap
        for inst, dist in [*self.one_walk_pairs(), (inst, gapped)]:
            before, walks = len(solved), 0 if _exact(dist) else 1
            assert len(virtual_rule(inst, ironed(dist)).breakpoints) > 2
            assert len(solved) == before + walks
            best_linear(inst, dist)
            assert len(solved) == before + walks
        assert iron(gapped).flats

    @pytest.mark.parametrize("k", range(8))
    def test_beats_inverse_ironed_ratios(self, k):
        # ratios of inverse-ironed welfare crossings to welfare crossings are
        # not kinks of the revenue curve: none beats the answer on the
        # atom-free library and battery pairs
        pairs = [(inst, dist) for inst, dist in [*polish_pairs()[:48], *battery(13, 8)] if not dist.has_atoms]
        for inst, dist in pairs[k::8]:
            _, rev = best_linear(inst, dist)
            zs = np.asarray(welfare_crossings(inst))
            ratios = ironed(dist).inverse(zs) / zs
            ratios = ratios[(ratios > 0.0) & (ratios <= 1.0)]
            if ratios.size:
                assert rev >= linear_revenue(inst, dist, ratios).max() - 1e-15 * abs(rev)

    def test_beats_scan_then_one_step_golden_polish(self, monkeypatch):
        # the golden-section search this refinement replaced: the same
        # scan, then one-step-per-call golden section on the argmax bracket;
        # grid route only, as the exact route prices no scan (its oracle
        # test covers it)
        scans = []
        revenue = metrics.linear_revenue
        monkeypatch.setattr(metrics, "linear_revenue", lambda inst, dist, a: scans.append(a) or revenue(inst, dist, a))
        for inst, dist in grid_pairs():
            before = len(scans)
            _, rev = best_linear(inst, dist)
            alphas = scans[before]
            revs = revenue(inst, dist, alphas)
            k = int(np.argmax(revs))
            lo = float(alphas[k - 1]) if k > 0 else 0.0
            hi = float(alphas[k + 1]) if k + 1 < len(alphas) else 1.0
            old = max(revs[k], golden_section_one_step_per_call(lambda a: revenue(inst, dist, a), lo, hi)[1])
            assert rev >= old - 1e-15 * abs(rev)

    def test_at_most_nine_revenue_calls(self, monkeypatch):
        # grid route: the scan and eight refinements, each 32 times narrower
        # than the last
        calls = []
        revenue = metrics.linear_revenue
        monkeypatch.setattr(metrics, "linear_revenue", lambda *args: calls.append(args) or revenue(*args))
        for inst, dist in grid_pairs():
            before = len(calls)
            best_linear(inst, dist)
            assert len(calls) - before <= 9
            assert len(calls[before][2]) >= metrics.ALPHA_GRID

    def test_exact_route_makes_one_revenue_call(self, monkeypatch):
        # the cell ends and the vertices inside them, priced together, and
        # never the ALPHA_GRID scan
        calls = []
        revenue = metrics.linear_revenue
        monkeypatch.setattr(metrics, "linear_revenue", lambda *args: calls.append(args) or revenue(*args))
        for inst, dist in exact_pairs():
            before = len(calls)
            alpha, rev = best_linear(inst, dist)
            assert len(calls) - before == 1
            shares = calls[before][2]
            assert len(shares) < metrics.ALPHA_GRID and {0.0, 1.0} <= set(shares.tolist())
            assert rev == revenue(inst, dist, shares)[shares.tolist().index(alpha)] == revenue(inst, dist, alpha)

    def test_exact_route_matches_exact_rational_oracle(self):
        # the oracle maximizes the exact revenue curve in Fraction; the
        # share may move by about sqrt(eps), since the curve is flat at its
        # maximum, but the revenue is within rounding
        for inst, dist in exact_pairs():
            alpha, rev = best_linear(inst, dist)
            exact_alpha, exact_rev = exact_best_linear(inst, dist)
            assert abs(rev - exact_rev) <= 1e-15 * exact_rev
            assert abs(alpha - exact_alpha) <= 1e-7 * exact_alpha
            for share in (*metrics.REVENUE_PROBES, alpha):
                exact = exact_revenue(inst, dist, share)
                assert abs(linear_revenue(inst, dist, share) - exact) <= 1e-14 * exact

    def test_gap_bounded_by_two(self):
        ex = gap(n=10, delta=0.01)
        _, rev = best_linear(ex.instance, ex.distributions["point_mass"])
        assert rev <= 2.0 + 1e-6

    def test_degenerate_zero_cost(self, rng):
        inst = random_instance(rng)
        a_star, rev = best_linear(inst, point_mass(0.0))
        assert rev == pytest.approx(inst.expected_rewards[-1], rel=1e-9)

    def test_dominates_probed_candidates(self, rng):
        inst = random_instance(rng)
        dist = scaled_distribution(rng, inst, 1)
        _, rev = best_linear(inst, dist)
        for a in np.linspace(0, 1, 101):
            assert rev >= linear_revenue(inst, dist, float(a)) - 1e-9
