import gc
import json
import math
import os
import random
import weakref

import numpy as np
import pytest

from agency import (
    AtomPresentError,
    Instance,
    IronedVirtualCost,
    TypeDistribution,
    exponential,
    from_spec,
    iron,
    ironed,
    linear_bounded_params,
    mixture,
    piecewise,
    point_mass,
    rhr_bound_alpha_hat,
    slow_virtual_beta,
    slowly_increasing_beta,
    small_tail_eta,
    smoothed_point_mass,
    to_spec,
    truncated_normal,
    uniform,
    verify,
    virtual_welfare,
    welfare,
)
from agency.conditions import REFINE_ROUNDS, SCAN_POINTS, _density_non_increasing
from agency.typedist import _exact
from agency.examples import scaling_uniform

from conftest import battery, random_instance, scaled_distribution, welfare_top


class TestSlowlyIncreasing:
    def test_uniform_half(self):
        assert slowly_increasing_beta(uniform(0, 1), 0.5, 0.0).value == pytest.approx(0.5, abs=1e-9)

    def test_identity_scaling(self):
        assert slowly_increasing_beta(uniform(0, 1), 1.0, 0.0).value == pytest.approx(1.0)

    def test_smoothed_mixture_closed_form(self):
        for eps in (0.1, 0.5, 0.9):
            got = slowly_increasing_beta(smoothed_point_mass(eps), 0.5, 0.0)
            assert got.value == pytest.approx(eps / (2 * (2 - eps)), abs=1e-9)
            assert got.witness == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_alpha_and_kappa(self):
        dist = exponential(1.0)
        betas = [slowly_increasing_beta(dist, a, 0.1).value for a in (0.3, 0.5, 0.8)]
        assert betas == sorted(betas)
        betas_k = [slowly_increasing_beta(dist, 0.5, k).value for k in (0.0, 0.5, 2.0)]
        assert betas_k == sorted(betas_k)


class TestSlowVirtual:
    def test_uniform_is_one(self):
        assert slow_virtual_beta(uniform(0, 1), None, 0.5, 0.0).value == pytest.approx(1.0, abs=1e-6)

    def test_alpha_one_at_least_one(self):
        for dist in (uniform(0, 2), exponential(0.8)):
            assert slow_virtual_beta(dist, None, 1.0, 0.0).value >= 1.0 - 1e-9

    @pytest.mark.parametrize("dist, beta", [
        (exponential(1.0), 0.5),  # the inf 2 alpha is a limit at c -> 0
        (truncated_normal(1, 2, 0), 0.473621),  # at c = 1.679
    ], ids=["exponential", "truncated_normal"])
    def test_unbounded_support_finds_the_dip(self, dist, beta):
        # an even scan of c up to the ironed cost's top (about 1e9 and 3e8
        # here) stepped over the dip and returned 1.0 there
        rep = slow_virtual_beta(dist, None, 0.25, 0.0)
        assert rep.value == pytest.approx(beta, abs=1e-6)
        assert rep.witness < 2.0

    def test_library_pairs_between_exact_inverse_scan_and_plain_slow_increase(self):
        # a log- and a linear-spaced scan of c, each point inverted exactly;
        # the type scan reaches at most 3.75e-8 above it, on exponential pairs
        # at alpha = 0.25 where the inf is a limit at c -> 0
        with open(LIBRARY, encoding="utf-8") as fh:
            dists = [d for d in (from_spec(p["dist"]) for p in json.load(fh)) if not d.has_atoms]
        assert len(dists) == 44
        for dist in dists:
            iv = ironed(dist)
            top = float(iv.values[-1])
            cs = np.concatenate([np.geomspace(1e-9, top, 2001), np.linspace(0.0, top, 2001)])
            den = np.asarray(dist.cdf(iv.inverse(cs)))
            for alpha in (0.25, 0.5):
                num = np.asarray(dist.cdf(alpha * cs))
                scan = float(np.min(num[den > 0] / den[den > 0]))
                got = slow_virtual_beta(dist, iv, alpha, 0.0).value
                assert got <= scan + 1e-7, (to_spec(dist), alpha)
                assert got >= slowly_increasing_beta(dist, alpha, 0.0).value - 1e-9, (to_spec(dist), alpha)

    def test_kappa_inside_a_jump(self):
        # the ironed cost jumps from 2 to 4 at the type 1, so kappa = 3 is a
        # cost of that type: G(0.75) / G(1) = 0.45 / 0.6; above it the ratio
        # falls only to 0.8, at the type 3
        rep = slow_virtual_beta(piecewise([(0, 1, 0.6), (1, 3, 0.2)]), None, 0.25, 3.0)
        assert rep.value == pytest.approx(0.75, rel=1e-12)
        assert rep.witness == 3.0

    def test_inverts_at_most_one_level_per_kink_and_kappa(self, monkeypatch):
        sizes, inverse = [], IronedVirtualCost.inverse
        monkeypatch.setattr(IronedVirtualCost, "inverse", lambda self, q: sizes.append(np.size(q)) or inverse(self, q))
        for dist in (exponential(1.0), truncated_normal(1, 2, 0), mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))]),
                     mixture([(0.4, truncated_normal(1, .3, 0)), (0.6, truncated_normal(6, .5, 0))])):
            iv = iron(dist)
            kinks = [k for k in dist.kinks() if math.isfinite(k)]
            for alpha, kappa in ((0.25, 0.0), (0.5, 1.0), (1.0, 0.2)):
                sizes.clear()
                slow_virtual_beta(dist, iv, alpha, kappa)
                assert sizes and max(sizes) <= len(kinks) + 1

    def test_gapped_mixture_matches_exact_inverse_scan(self):
        # the ratio's infimum sits at the flat level L = 23/3 + 8/√3, where the
        # inverse jumps across the gap to the flat's top c2: G(L/2)/G(c2); a
        # linearly interpolated inverse gives 0.765567
        dist = mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))])
        iv = iron(dist)
        qs = np.concatenate([np.linspace(0.0, float(iv.values[-1]), 100_001), [lev for _, _, lev in iv.flats]])
        den = np.asarray(dist.cdf(iv.inverse(qs)))
        num = np.asarray(dist.cdf(0.5 * qs))
        exact = float(np.min(np.where(den > 0, num / np.maximum(den, 1e-300), np.inf)))
        level, c2 = 23.0 / 3.0 + 8.0 / math.sqrt(3.0), 5.0 + math.sqrt(0.12) / 0.15
        closed = (0.4 + 0.15 * (level / 2.0 - 5.0)) / (0.4 + 0.15 * (c2 - 5.0))
        assert closed == pytest.approx(0.7655444566, abs=1e-10)
        assert exact == pytest.approx(closed, rel=1e-12)
        assert slow_virtual_beta(dist, iv, 0.5, 0.0).value == pytest.approx(exact, abs=1e-8)

    def test_dominates_plain_slow_increase(self):
        for dist in (exponential(1.0), uniform(0, 3), truncated_normal(1, 2, 0)):
            plain = slowly_increasing_beta(dist, 0.5, 0.2).value
            virt = slow_virtual_beta(dist, None, 0.5, 0.2).value
            assert virt >= plain - 1e-9

    def test_atoms_rejected(self):
        with pytest.raises(AtomPresentError):
            slow_virtual_beta(smoothed_point_mass(0.3), None, 0.5, 0.0)


@pytest.mark.parametrize("entry", [
    lambda dist, alpha: slowly_increasing_beta(dist, alpha, 0.0),
    lambda dist, alpha: slow_virtual_beta(dist, None, alpha, 0.0),
], ids=["slowly_increasing_beta", "slow_virtual_beta"])
def test_alpha_outside_unit_interval_raises(entry):
    # slow_virtual_beta used to return the vacuous 1.0 at alpha = 2 and 0.0
    # at alpha = -1 without error
    for alpha in (0.0, -1.0, 2.0, -0.0):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]$"):
            entry(uniform(0, 1), alpha)
    assert entry(uniform(0, 1), 1.0).value == pytest.approx(1.0)


class TestLinearBounded:
    def test_uniform(self):
        rep = linear_bounded_params(uniform(0, 7))
        assert rep.value == pytest.approx(0.5, abs=1e-9)
        assert rep.params["beta"] == pytest.approx(0.5, abs=1e-9)

    def test_truncated_normal_bound(self):
        # sigma = 2 mu exceeds the 5/(2 sqrt 2) mu threshold
        rep = linear_bounded_params(truncated_normal(1.0, 2.0, 0.0))
        assert rep.value <= 2.0 / 3.0 + 1e-9

    def test_non_increasing_density_positive_low(self):
        # decreasing density on [1, 6]: virtual cost >= 2c - 1, so above
        # kappa = k * c_low the sup of c / phi is at most k/(2k - 1)
        dist = piecewise([(1.0, 3.0, 0.35), (3.0, 6.0, 0.1)])
        for k in (2.0, 3.0):
            rep = linear_bounded_params(dist, kappa=k * 1.0)
            assert rep.value <= k / (2 * k - 1) + 1e-9

    def test_sup_and_inf_share_one_scan(self, monkeypatch):
        # one pass over the scan points, then one call per refinement round
        # that prices the sup's 65 points and the inf's together
        dist = piecewise([(0, 5, 0.1), (5, 6, 0.5)])
        iv, sizes, value = iron(dist), [], IronedVirtualCost.value
        monkeypatch.setattr(IronedVirtualCost, "value", lambda self, c: sizes.append(np.size(c)) or value(self, c))
        linear_bounded_params(dist, iv)
        assert sizes[0] >= SCAN_POINTS and sizes[1:] == [130] * REFINE_ROUNDS

    @pytest.mark.parametrize("measure, refined", [
        (lambda dist: slowly_increasing_beta(dist, 0.5, 0.0), [130] * REFINE_ROUNDS),  # G(alpha c) and G(c) in one call
        (rhr_bound_alpha_hat, [65] * REFINE_ROUNDS + [512]),  # then the virtual-cost cross-check
    ], ids=["slowly_increasing_beta", "rhr_bound_alpha_hat"])
    def test_an_inf_alone_refines_one_side(self, monkeypatch, measure, refined):
        # refining an unread sup alongside would double each round's points
        dist = piecewise([(0, 5, 0.1), (5, 6, 0.5)])
        sizes, cdf = [], TypeDistribution.cdf
        monkeypatch.setattr(TypeDistribution, "cdf", lambda self, x: sizes.append(np.size(x)) or cdf(self, x))
        measure(dist)
        assert [n for n in sizes if n < SCAN_POINTS] == refined

    def test_sandwich_property(self):
        for dist in (uniform(0, 4), truncated_normal(0.5, 1.5, 0.0)):
            rep = linear_bounded_params(dist)
            iv = iron(dist)
            cs = np.linspace(1e-6, iv.c_high, 500)
            vals = np.asarray(iv.value(cs))
            assert np.all(vals >= cs / rep.value - 1e-6 * max(1, vals.max()))
            if not rep.params["beta_scan_truncated"]:
                assert np.all(vals <= cs / max(rep.params["beta"], 1e-12) + 1e-6 * vals.max())
            assert rep.params["beta"] <= rep.value <= 1.0 + 1e-12


class TestSmallTail:
    def test_full_range_is_one(self, rng):
        inst = random_instance(rng)
        dist = scaled_distribution(rng, inst, 0)
        assert small_tail_eta(inst, dist, dist.c_low, "cost").value == pytest.approx(1.0)

    def test_empty_tail_is_zero(self, rng):
        inst = random_instance(rng)
        dist = uniform(0.0, 0.9 * welfare_top(inst))
        assert small_tail_eta(inst, dist, dist.c_high, "cost").value == pytest.approx(0.0, abs=1e-9)

    def test_scaling_example_tail_vanishes(self):
        ex = scaling_uniform(n=5, delta=0.1, c_bar=5.0)
        eta = small_tail_eta(ex.instance, ex.distributions["uniform"], ex.facts["welfare_dies_at"], "cost")
        assert eta.value == pytest.approx(0.0, abs=1e-9)

    def test_virtual_variant(self, rng):
        inst = random_instance(rng)
        dist = uniform(0.0, 1.4 * welfare_top(inst))
        kappa = 0.2 * welfare_top(inst)
        eta = small_tail_eta(inst, dist, kappa, "virtual")
        expect = virtual_welfare(inst, dist, (kappa, math.inf)) / virtual_welfare(inst, dist)
        assert eta.value == pytest.approx(expect, rel=1e-9)


class TestRhrBound:
    def test_uniform_is_one(self):
        assert rhr_bound_alpha_hat(uniform(0, 1)).value == pytest.approx(1.0, abs=1e-9)

    def test_exponential_scan(self):
        rep = rhr_bound_alpha_hat(exponential(1.0))
        assert rep.value >= 1.0 - 1e-6
        cs = np.linspace(1e-6, 15.0, 100_000)
        dist = exponential(1.0)
        ratio = np.asarray(dist.cdf(cs)) / (cs * np.asarray(dist.pdf(cs)))
        assert rep.value == pytest.approx(float(ratio.min()), abs=1e-6)

    def test_narrow_uniform_near_zero(self):
        assert rhr_bound_alpha_hat(uniform(1.0, 1.01)).value == pytest.approx(0.0, abs=1e-3)

    def test_virtual_cost_implication(self):
        rep = rhr_bound_alpha_hat(truncated_normal(0.4, 1.2, 0.0))
        assert rep.params["virtual_cost_slack"] >= -1e-6

    def test_gapped_mixture_skips_the_gap(self):
        # the slack grid once priced the virtual cost inside (30, 50) and raised
        rep = rhr_bound_alpha_hat(mixture([(0.4, uniform(0, 30)), (0.6, uniform(50, 90))]))
        assert rep.value == pytest.approx(0.4 / 0.75, abs=1e-9)  # G / (c g) at c = 50
        assert 0.0 <= rep.params["virtual_cost_slack"] <= 1e-6


class TestVerify:
    def test_exponential_two_approx_to_virtual(self, rng):
        inst = random_instance(rng)
        dist = exponential(8.0 / welfare_top(inst))
        v = verify(inst, dist, "lin_bounded_1")
        assert v.hypothesis_ok and v.passed
        assert v.guarantee == pytest.approx(2.0, abs=1e-6)

    def test_wel_implications_positive_low_support(self):
        # decreasing density on [1, 6], kappa = 3
        dist = piecewise([(1.0, 3.0, 0.35), (3.0, 6.0, 0.1)])
        inst = Instance(gammas=(0, 1, 2.2), rewards=(0, 4, 9),
                        outcome_probs=((1, 0, 0), (0, 1, 0), (0, 0.3, 0.7)))
        v = verify(inst, dist, "wel_implications", kappa=3.0)
        assert v.hypothesis_ok
        eta = v.params["eta"]
        assert v.guarantee == pytest.approx(4 * 3.0 / (eta * 2.0), rel=1e-9)
        assert v.passed

    @staticmethod
    def narrow_spike(shift: float) -> TypeDistribution:
        # density 205 on a step a tenth of the scan's spacing, 0.095 elsewhere
        step = 10.0 / (SCAN_POINTS - 1)
        s = shift + 37.3 * step
        return mixture([(0.95, uniform(shift, shift + 10.0)), (0.05, uniform(s, s + 0.1 * step))])

    def test_narrow_step_up_fails_non_increasing(self):
        inst = random_instance(np.random.default_rng(3))
        v = verify(inst, self.narrow_spike(0.0), "wel_implications")
        assert not v.hypothesis_ok and not v.passed
        assert "density is not non-increasing" in v.notes
        v = verify(inst, self.narrow_spike(1.0), "rev_implications", variant="non_increasing")
        assert "need non-increasing density, c_low > 0, kappa > 1" in v.notes

    def test_rise_between_scan_points_fails_non_increasing(self):
        # the density of truncated_normal(0.0005, 1, 0) rises by 1.25e-7
        # relative on [0, 0.0005], between two points of an even scan; the
        # part's own sign of g' there decides it, with nothing scanned. So
        # it does where the density underflows at the cell's midpoint: a
        # normal of sigma 0.1 at 10 rises from 0, alone or over a uniform
        inst = random_instance(np.random.default_rng(3))
        bump = truncated_normal(10.0, 0.1, 0.0)
        for dist, ok in ((truncated_normal(0.0005, 1.0, 0.0), False), (truncated_normal(0.0, 1.0, 0.0), True),
                         (truncated_normal(-0.5, 1.0, 0.0), True), (bump, False),
                         (mixture([(0.5, uniform(0.0, 20.0)), (0.5, bump)]), False)):
            v = verify(inst, dist, "wel_implications")
            assert v.hypothesis_ok is ok and ("density is not non-increasing" in v.notes) is not ok
            assert not any("scanned" in note for note in v.notes)
        assert _density_non_increasing(point_mass(1.0), [])  # no density and no cell

    def test_parts_of_opposite_slope_are_scanned_on_their_cells(self):
        # a rising truncated normal under a falling exponential: the sum of
        # their slopes decides each cell where they disagree, and a note says
        # so, also where the normal's density underflows at the cell's middle
        inst = random_instance(np.random.default_rng(3))
        for w, mu, sigma, ok in ((0.1, 1.0, 2.0, True), (0.5, 1.0, 0.5, False), (0.5, 10.0, 0.1, False)):
            dist = mixture([(1.0 - w, exponential(1.0)), (w, truncated_normal(mu, sigma, 0.0))])
            v = verify(inst, dist, "rev_implications", variant="exponential")
            assert "density slope scanned on 1 of 2 cells" in v.notes
            assert ("need non-increasing density on [0, inf)" in v.notes) is not ok

    def test_wel_implications_exponential(self):
        for seed in range(4):
            inst = random_instance(np.random.default_rng(seed))
            v = verify(inst, exponential(8.0 / welfare_top(inst)), "wel_implications")
            assert v.hypothesis_ok and v.passed, v.notes

    def test_upper_n_battery(self):
        for inst, dist in battery(21, 8):
            v = verify(inst, dist, "upper_n")
            assert v.passed, (v.theorem, v.ratio, v.guarantee)

    def test_smooth_requires_matching_distribution(self, rng):
        inst = random_instance(rng)
        v = verify(inst, uniform(0, 2), "smooth", epsilon=0.3)
        assert not v.hypothesis_ok

    def test_smooth_passes_on_canonical(self, rng):
        inst = random_instance(rng)
        v = verify(inst, smoothed_point_mass(0.3), "smooth", epsilon=0.3)
        assert v.hypothesis_ok and v.passed
        # the same distribution written with two uniform halves
        halves = mixture([(0.8, point_mass(1)), (0.1, uniform(0, 1)), (0.1, uniform(1, 2))])
        v = verify(inst, halves, "smooth", epsilon=0.2)
        assert v.hypothesis_ok and v.passed

    def test_smooth_rejects_a_density_matching_between_probes(self, rng):
        # 0.75 and 0.25 on alternating half-cells of the 97 points the CDF was
        # once compared at: equal CDFs there, a different distribution
        inst = random_instance(rng)
        cells = np.linspace(0.0, 2.0, 193)
        bumpy = piecewise((a, b, 0.75 if k % 2 == 0 else 0.25) for k, (a, b) in enumerate(zip(cells[:-1], cells[1:])))
        v = verify(inst, mixture([(0.8, point_mass(1.0)), (0.2, bumpy)]), "smooth", epsilon=0.2)
        assert not v.hypothesis_ok and not v.passed
        assert v.notes == ("distribution is not the smoothed point mass",)
        # a part whose CDF is not linear between kinks fails outright
        v = verify(inst, mixture([(0.8, point_mass(1.0)), (0.2, exponential(1.0))]), "smooth", epsilon=0.2)
        assert not v.hypothesis_ok

    def test_lin_bounded_2_hypothesis_gate(self, rng):
        inst = random_instance(rng)
        # tiny support: the top type is still incentivized to work
        dist = uniform(0.0, 0.05 * welfare_top(inst))
        v = verify(inst, dist, "lin_bounded_2")
        assert not v.hypothesis_ok
        assert not v.passed

    def test_verdict_battery_inequalities(self):
        for inst, dist in battery(22, 8):
            for theorem in ("universal", "slow", "lin_bounded_1", "lin_bounded_2"):
                v = verify(inst, dist, theorem)
                assert v.hypothesis_ok, (theorem, v.notes)
                assert v.passed, (theorem, v.ratio, v.guarantee)

    def test_atom_verdicts(self, rng):
        # every theorem that needs an atom-free distribution says so in one
        # verdict; a missing or unknown rev_implications variant is raised first
        inst, dist = random_instance(rng), smoothed_point_mass(0.3)
        want = {"hypothesis_ok": False, "notes": ["distribution has atoms", "benchmark is zero; pass is vacuous"],
                "guarantee": math.inf, "benchmark_name": "virtual_welfare", "benchmark": 0.0, "revenue": 0.0,
                "alpha": 0.0, "ratio": 1.0, "passed": False, "degenerate": True, "params": {}, "tolerance": 1e-6}
        jobs = [("lin_bounded_1", {}), ("lin_bounded_2", {}), ("upper_n", {})]
        for theorem, kwargs in jobs + [("rev_implications", {"variant": v}) for v in VARIANTS]:
            assert verify(inst, dist, theorem, **kwargs).to_dict() == {"theorem": theorem, **want}
        with pytest.raises(ValueError, match="^rev_implications needs a variant$"):
            verify(inst, dist, "rev_implications")
        with pytest.raises(ValueError, match="^unknown rev_implications variant 'bogus'$"):
            verify(inst, dist, "rev_implications", variant="bogus")

    def test_unknown_theorem(self, rng):
        inst = random_instance(rng)
        with pytest.raises(ValueError, match="unknown theorem"):
            verify(inst, uniform(0, 1), "fermat")


# ---------------------------------------------------------------------------
# results kept on the objects of a pair

LIBRARY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "library_pairs.json")
VARIANTS = ("uniform", "exponential", "truncated_normal", "non_increasing")


def verdict_jobs():
    """Instance and distribution specs of the 48 library pairs and a conftest
    battery, and every verdict to run on them as ``(pair, theorem, kwargs)``."""
    with open(LIBRARY, encoding="utf-8") as fh:
        library = json.load(fh)
    specs = [(p["instance"], p["dist"]) for p in library]
    jobs = [(k, th, kw) for k, p in enumerate(library) for th, kw in sorted(p["verify"].items())]
    for k, (inst, dist) in enumerate(battery(23, 8)):
        specs.append(pair_spec(inst, dist))
        jobs += [(len(specs) - 1, th, {}) for th in
                 ("universal", "slow", "lin_bounded_1", "lin_bounded_2", "upper_n", "wel_implications")]
        jobs.append((len(specs) - 1, "rev_implications", {"variant": VARIANTS[k % 4]}))
    return specs, jobs


def pair_spec(inst, dist):
    return {"gammas": inst.gammas, "rewards": inst.rewards, "outcome_probs": inst.outcome_probs}, to_spec(dist)


def fresh_pair(spec):
    return Instance(**spec[0]), from_spec(spec[1])


def verdict_text(pair, theorem, kwargs) -> str:
    # JSON keeps every float's repr, so equal text means equal bits
    return json.dumps(verify(*pair, theorem, **kwargs).to_dict(), sort_keys=True)


#: entry point -> [(argument named in the error, a call with a NaN there)]
NAN_CALLS = {
    "welfare": [("interval", lambda inst, dist: welfare(inst, dist, (math.nan, math.inf)))],
    "virtual_welfare": [("interval", lambda inst, dist: virtual_welfare(inst, dist, (0.0, math.nan)))],
    "small_tail_eta": [("kappa", lambda inst, dist: small_tail_eta(inst, dist, math.nan, "cost")),
                       ("kappa", lambda inst, dist: small_tail_eta(inst, dist, math.nan, "virtual"))],
    "linear_bounded_params": [("kappa", lambda inst, dist: linear_bounded_params(dist, None, math.nan))],
    "slowly_increasing_beta": [("kappa", lambda inst, dist: slowly_increasing_beta(dist, 0.5, math.nan))],
    "slow_virtual_beta": [("alpha", lambda inst, dist: slow_virtual_beta(dist, None, math.nan, 0.0)),
                          ("kappa", lambda inst, dist: slow_virtual_beta(dist, None, 0.5, math.nan))],
    # a nan beta and eta once read as a guarantee that failed on the instance
    "verify": [("beta", lambda inst, dist: verify(inst, uniform(0, 9), "slow", beta=math.nan, eta=math.nan))] + [
        (name, lambda inst, dist, name=name, theorem=theorem:
         verify(inst, dist, theorem, variant="uniform", **{name: math.nan}))
        for name in ("q", "alpha", "beta", "kappa", "eta", "epsilon")
        for theorem in ("universal", "slow", "smooth", "rev_implications")],
}


@pytest.mark.parametrize("entry", sorted(NAN_CALLS))
def test_nan_argument_raises_naming_it(entry):
    inst, dist = battery(1, 1)[0]
    for name, call in NAN_CALLS[entry]:
        with pytest.raises(ValueError, match=f"^{name} must not be nan$"):
            call(inst, dist)


class TestKeptResults:
    def test_verdicts_do_not_depend_on_call_order(self):
        # each verdict on objects shared by every verdict, in three orders,
        # matches the verdict on fresh objects with a cleared ironing cache
        specs, jobs = verdict_jobs()
        want = []
        for k, theorem, kwargs in jobs:
            ironed.cache_clear()
            want.append(verdict_text(fresh_pair(specs[k]), theorem, kwargs))
        shuffled = list(range(len(jobs)))
        random.Random(12).shuffle(shuffled)
        for order in (range(len(jobs)), range(len(jobs) - 1, -1, -1), shuffled):
            ironed.cache_clear()
            pairs = [fresh_pair(spec) for spec in specs]
            for j in order:
                k, theorem, kwargs = jobs[j]
                assert verdict_text(pairs[k], theorem, kwargs) == want[j], (k, theorem)

    def test_repeated_verdict_makes_no_bisection_and_no_scan(self, monkeypatch):
        bisect, value = IronedVirtualCost._bisect, IronedVirtualCost.value
        for k, (inst, dist) in enumerate(battery(24, 4)):
            kwargs = {"lin_bounded_1": {}, "lin_bounded_2": {}, "upper_n": {},
                      "rev_implications": {"variant": VARIANTS[k]}}
            for theorem, kw in kwargs.items():
                ironed.cache_clear()
                pair = fresh_pair(pair_spec(inst, dist))
                first = verdict_text(pair, theorem, kw)
                bisections, sizes = [], []
                monkeypatch.setattr(IronedVirtualCost, "_bisect", lambda iv, q: bisections.append(q) or bisect(iv, q))
                monkeypatch.setattr(IronedVirtualCost, "value", lambda iv, c: sizes.append(np.size(c)) or value(iv, c))
                assert verdict_text(pair, theorem, kw) == first
                monkeypatch.undo()
                assert bisections == [] and max(sizes, default=1) <= 1, (theorem, sizes)

    def test_verdict_sequence_makes_one_bisection(self, monkeypatch):
        # the virtual rule (under lin_bounded_1, kept on the instance) is the
        # only inverse; upper_n's best_linear never irons; the uniform and
        # piecewise pairs take the exact route, which bisects nothing
        bisect = IronedVirtualCost._bisect
        for inst, dist in battery(27, 8):
            ironed.cache_clear()
            pair = fresh_pair(pair_spec(inst, dist))
            bisections = []
            monkeypatch.setattr(IronedVirtualCost, "_bisect", lambda iv, q: bisections.append(q) or bisect(iv, q))
            for theorem in ("slow", "universal", "lin_bounded_1", "lin_bounded_2", "upper_n"):
                verify(*pair, theorem)
            monkeypatch.undo()
            assert len(bisections) == (0 if _exact(dist) else 1)

    def test_kappa_echoed_with_its_own_type_and_sign(self):
        inst, dist = battery(25, 1)[0]
        for kappa in (0, 0.0, -0.0, 0, -0.0, 0.0):
            for params in (linear_bounded_params(dist, None, kappa).params,
                           verify(inst, dist, "lin_bounded_1", kappa=kappa).params):
                got = params["kappa"]
                assert type(got) is type(kappa) and math.copysign(1.0, got) == math.copysign(1.0, kappa)

    def test_returned_params_are_the_callers_own(self):
        dist = exponential(1.0)
        iv = iron(dist)
        rep = linear_bounded_params(dist, iv)
        want = rep.to_dict()
        rep.params["alpha"] = 99.0
        assert linear_bounded_params(dist, iv).to_dict() == want
        linear_bounded_params(dist, iv).params.clear()
        assert linear_bounded_params(dist, iv).to_dict() == want

    def test_slot_keeps_only_its_last_partners(self):
        # a loop over fresh distributions leaves the instance holding the last
        inst = battery(26, 1)[0][0]
        dists = [uniform(0.0, 5.0 + k) for k in range(3)]
        refs = [weakref.ref(d) for d in dists]
        for d in dists:
            fresh = Instance(inst.gammas, inst.rewards, inst.outcome_probs)
            want = (welfare(fresh, d), virtual_welfare(fresh, d, iv=iron(d)))
            assert (welfare(inst, d), virtual_welfare(inst, d, iv=iron(d))) == want
        del dists, d
        gc.collect()
        assert [r() is None for r in refs] == [True, True, False]
