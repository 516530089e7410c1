import math

import numpy as np
import pytest

from agency import (
    AtomPresentError,
    Instance,
    IronedVirtualCost,
    exponential,
    iron,
    linear_bounded_params,
    mixture,
    piecewise,
    point_mass,
    rhr_bound_alpha_hat,
    slow_virtual_beta,
    slowly_increasing_beta,
    small_tail_eta,
    smoothed_point_mass,
    truncated_normal,
    uniform,
    verify,
    virtual_welfare,
    welfare,
)
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

    def test_exponential_matches_dense_scan(self):
        dist = exponential(1.0)
        iv = iron(dist)
        got = slow_virtual_beta(dist, iv, 0.5, 0.1).value
        cs = np.linspace(0.1, float(iv.values[-1]), 100_000)
        inv = np.asarray([min(iv.inverse(q), dist.effective_high()) for q in cs[:: 1000]])
        num = np.asarray(dist.cdf(0.5 * cs[::1000]))
        den = np.asarray(dist.cdf(inv))
        ratio = num / np.maximum(den, 1e-300)
        assert got <= ratio.min() + 1e-6

    def test_gapped_mixture_matches_exact_inverse_scan(self):
        # the ratio's infimum sits at the flat level, where the inverse jumps
        # across the gap; a linearly interpolated inverse gives 0.765567
        dist = mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))])
        iv = iron(dist)
        qs = np.concatenate([np.linspace(0.0, float(iv.values[-1]), 100_001), [lev for _, _, lev in iv.flats]])
        den = np.asarray(dist.cdf(iv.inverse(qs)))
        num = np.asarray(dist.cdf(0.5 * qs))
        exact = float(np.min(np.where(den > 0, num / np.maximum(den, 1e-300), np.inf)))
        assert exact == pytest.approx(0.765469, abs=1e-6)
        assert slow_virtual_beta(dist, iv, 0.5, 0.0).value == pytest.approx(exact, abs=1e-8)

    def test_dominates_plain_slow_increase(self):
        for dist in (exponential(1.0), uniform(0, 3), truncated_normal(1, 2, 0)):
            plain = slowly_increasing_beta(dist, 0.5, 0.2).value
            virt = slow_virtual_beta(dist, None, 0.5, 0.2).value
            assert virt >= plain - 1e-9

    def test_atoms_rejected(self):
        with pytest.raises(AtomPresentError):
            slow_virtual_beta(smoothed_point_mass(0.3), None, 0.5, 0.0)


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
        # one pass over the scan points; each refinement call prices 65
        dist = piecewise([(0, 5, 0.1), (5, 6, 0.5)])
        iv, sizes, value = iron(dist), [], IronedVirtualCost.value
        monkeypatch.setattr(IronedVirtualCost, "value", lambda self, c: sizes.append(np.size(c)) or value(self, c))
        linear_bounded_params(dist, iv, scan_points=512)
        assert sum(n >= 512 for n in sizes) == 1

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

    def test_unknown_theorem(self, rng):
        inst = random_instance(rng)
        with pytest.raises(ValueError, match="unknown theorem"):
            verify(inst, uniform(0, 1), "fermat")
