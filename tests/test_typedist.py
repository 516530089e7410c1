import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import truncnorm

from agency import (
    AtomPresentError,
    DistributionError,
    UndefinedAtAtomError,
    ZeroCdfError,
    ZeroDensityError,
    exponential,
    from_spec,
    iron,
    mixture,
    piecewise,
    point_mass,
    rhr,
    to_spec,
    truncated_normal,
    uniform,
)


def non_implement_dist():
    d = 20.0 / 23.0
    return piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)])


class TestCdf:
    def test_uniform_midpoint(self):
        assert uniform(0, 1).cdf(0.5) == pytest.approx(0.5)

    def test_mixture_atom(self, rng):
        eps = 0.5
        mix = mixture([(1 - eps, point_mass(1.0)), (eps, uniform(0, 2))])
        assert mix.cdf(1.0) == pytest.approx(0.75)
        assert mix.cdf_left(1.0) == pytest.approx(0.25)
        # Monte-Carlo cross-check
        s = mix.sample(rng, 200_000)
        assert np.mean(s <= 1.0) == pytest.approx(0.75, abs=0.005)

    def test_piecewise_counterexample(self):
        assert non_implement_dist().cdf(1.0) == pytest.approx(20 / 23, abs=1e-12)

    def test_clamps_outside_support(self):
        u = uniform(1, 2)
        assert u.cdf(0.0) == 0.0
        assert u.cdf(5.0) == 1.0

    def test_numeric_cdf_matches_density_integral(self):
        for dist in (uniform(0.5, 3), exponential(0.7), truncated_normal(1, 2, 0),
                     non_implement_dist()):
            hi = dist.effective_high()
            xs = np.linspace(dist.c_low, hi, 1001)
            fine = np.linspace(dist.c_low, hi, 200_001)
            mid = 0.5 * (fine[1:] + fine[:-1])
            dens = np.asarray(dist.pdf(mid, side="right"))
            approx = np.concatenate([[0], np.cumsum(dens * np.diff(fine))])
            num = np.interp(xs, fine, approx)
            exact = np.asarray(dist.cdf(xs))
            assert np.max(np.abs(num - exact)) < 1e-8 * max(1.0, exact.max())


class TestTruncatedNormal:
    @pytest.mark.parametrize("mu", [-50.0, -8.0, 0.0, 2.0])
    def test_matches_scipy_truncnorm(self, mu):
        d = truncated_normal(mu, 1.0, 0.0)
        ref = truncnorm(-mu, np.inf, loc=mu, scale=1.0)
        xs = ref.ppf(np.array([0.001, 0.1, 0.5, 0.9, 0.999]))
        assert np.asarray(d.cdf(xs)) == pytest.approx(ref.cdf(xs), rel=1e-9)
        assert np.asarray(d.pdf(xs)) == pytest.approx(ref.pdf(xs), rel=1e-9)
        for q in (0.01, 0.5, 0.99):
            assert d.quantile(q) == pytest.approx(ref.ppf(q), rel=1e-9)
        assert np.all(np.isfinite(np.asarray(d.virtual_cost(xs))))

    def test_bound_tail_computed_once(self, monkeypatch):
        part = truncated_normal(1.0, 2.0, 0.0).parts[0][1]
        xs = np.array([0.5, 1.0, 4.0])
        expected = -np.expm1(part._log_sf(xs) - part._log_sf(0.0))
        assert np.array_equal(part.cdf(xs), expected)  # bit for bit
        calls = []
        log_sf = type(part)._log_sf
        monkeypatch.setattr(type(part), "_log_sf", lambda self, x: calls.append(x) or log_sf(self, x))
        part.cdf(xs), part.pdf(xs, "right"), part.quantile(0.5)
        assert len(calls) == 1  # the cdf's own tail; the bound's is kept from the first call

    def test_far_lower_bound_keeps_its_tail(self):
        # 1 - Phi(8) is below half an ulp of 1, which rounded the CDF to one
        assert truncated_normal(-8.0, 1.0, 0.0).cdf(0.5) == pytest.approx(0.98476, abs=1e-5)

    def test_nan_raises_named_error(self):
        hopeless = truncated_normal(-1e200, 1.0, 0.0)  # log tail is -inf
        for method in (hopeless.cdf, hopeless.pdf, hopeless.virtual_cost):
            with np.errstate(all="ignore"), pytest.raises(DistributionError):
                method(1.0)
        with pytest.raises(DistributionError, match="NaN"):
            uniform(0, 1).cdf(float("nan"))

    def test_scipy_imported_lazily(self):
        probe = "import sys, agency.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_library_commands_leave_scipy_optimize_unimported(self):
        # only the LPs of the certificate and the audit import the solver
        inst = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "inputs", "uniform.json")
        probe = (
            "import contextlib, io, sys\n"
            "from agency.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['verify', '--instance', {inst!r}, '--theorem', 'upper_n']) == 0\n"
            f"    assert main(['analyze', '--instance', {inst!r}]) == 0\n"
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestVirtualCost:
    def test_uniform_doubles(self):
        u = uniform(0, 3)
        c = np.linspace(0.001, 3, 500)
        assert np.max(np.abs(np.asarray(u.virtual_cost(c)) - 2 * c)) < 1e-12

    def test_counterexample_segments(self):
        d = non_implement_dist()
        assert d.virtual_cost(2.0) == pytest.approx(43.0, abs=1e-9)
        assert d.virtual_cost(0.5) == pytest.approx(1.0, abs=1e-9)
        assert d.virtual_cost(5.0) == pytest.approx(92.0, abs=1e-9)

    def test_exponential_at_zero(self):
        assert exponential(1.0).virtual_cost(0.0) == pytest.approx(0.0)

    def test_atom_raises(self):
        mix = mixture([(0.5, point_mass(1.0)), (0.5, uniform(0, 2))])
        with pytest.raises(UndefinedAtAtomError):
            mix.virtual_cost(1.0)
        # atoms strictly below are folded into the CDF
        assert mix.virtual_cost(1.5) == pytest.approx(1.5 + (0.875 / 0.25))

    def test_zero_density_raises(self):
        with pytest.raises(ZeroDensityError):
            uniform(1, 2).virtual_cost(0.5)


class TestIron:
    def test_uniform_identity(self):
        iv = iron(uniform(0, 1))
        c = np.linspace(0, 1, 1000)
        assert np.max(np.abs(np.asarray(iv.value(c)) - 2 * c)) < 1e-8
        assert iv.flats == ()

    def test_counterexample_monotone(self):
        iv = iron(non_implement_dist())
        assert iv.flats == ()
        c = np.linspace(0.01, 9.99, 1500)
        expected = np.asarray(non_implement_dist().virtual_cost(c))
        assert np.max(np.abs(np.asarray(iv.value(c)) - expected)) < 1e-6

    def test_synthetic_non_monotone(self):
        # density jumps up at 1, so the virtual cost drops there and the
        # hull must bridge the dip with a flat
        dist = piecewise([(0, 1, 0.2), (1, 2, 0.8)])
        phi = dist.virtual_cost
        assert phi(1.0) < phi(0.999)  # genuinely non-monotone
        iv = iron(dist)
        assert len(iv.flats) >= 1
        vals = np.asarray(iv.value(np.linspace(0, 2, 2000)))
        assert np.all(np.diff(vals) >= -1e-9)
        # quantile-space hull: the flat is the common tangent of (G, cG) at
        # slope 1.5, touching at c = 0.75 and c = 1.125
        (lo, hi, level), = iv.flats
        assert level == pytest.approx(1.5, abs=1e-5)
        assert (lo, hi) == pytest.approx((0.75, 1.125), abs=1e-3)
        # dG invariant, by independent midpoint quadrature: the level is the
        # dG-weighted mean of the raw virtual cost over the flat, and the
        # ironed function keeps the total ∫ φ dG = c_high G(c_high) = 2
        edges = np.linspace(0, 2, 400_001)
        mid = 0.5 * (edges[:-1] + edges[1:])
        dG = np.asarray(dist.pdf(mid)) * np.diff(edges)
        on_flat = (mid > lo) & (mid < hi)
        raw_mean = np.sum(np.asarray(phi(mid[on_flat])) * dG[on_flat]) / np.sum(dG[on_flat])
        assert level == pytest.approx(raw_mean, rel=1e-6)
        assert np.sum(np.asarray(iv.value(mid)) * dG) == pytest.approx(2.0, rel=1e-8)

    def test_atoms_rejected(self):
        with pytest.raises(AtomPresentError):
            iron(mixture([(0.5, point_mass(1.0)), (0.5, uniform(0, 2))]))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            iron(uniform(0, 1), grid_size=32)


class TestIronInverse:
    def test_uniform(self):
        iv = iron(uniform(0, 1))
        assert iv.inverse(1.0) == pytest.approx(0.5, abs=1e-9)

    def test_counterexample_jumps(self):
        iv = iron(non_implement_dist())
        # scan oracle at 1e-4 resolution for q = 50
        grid = np.arange(0, 10, 1e-4)
        phi = np.asarray(non_implement_dist().virtual_cost(np.maximum(grid, 1e-9)))
        oracle = grid[phi <= 50].max()
        assert iv.inverse(50.0) == pytest.approx(4.0, abs=1e-6)
        assert abs(iv.inverse(50.0) - oracle) < 2e-4
        assert iv.inverse(100.0) == pytest.approx(9.0, abs=1e-6)
        assert iv.inverse(40.0) == pytest.approx(1.0, abs=1e-6)

    def test_clamps(self):
        iv = iron(uniform(1, 2))
        assert iv.inverse(0.0) == 1.0
        assert iv.inverse(1e9) == 2.0

    def test_batch_matches_one_at_a_time(self):
        for dist in (uniform(0, 2), exponential(1.0), truncated_normal(1, 2, 0), non_implement_dist()):
            iv = iron(dist)
            lo, hi = float(iv.values[0]), float(iv.values[-1])
            # below and above the range, the range ends, the interior, and the
            # counterexample's jump levels (kink rule: 1 and 4; then 9)
            levels = np.concatenate([[lo - 1.0, hi + 1.0, lo, hi, 40.0, 50.0, 100.0], np.linspace(lo, hi, 23)])
            got = iv.inverse(levels)
            assert isinstance(got, np.ndarray) and got.shape == levels.shape
            assert got.tolist() == [iv.inverse(float(q)) for q in levels]
        iv = iron(non_implement_dist())
        assert iv.inverse(np.asarray([40.0, 50.0])).tolist() == [1.0, 4.0]
        assert iv.inverse(100.0) == pytest.approx(9.0, abs=1e-12)
        assert type(iv.inverse(50.0)) is float
        assert iv.inverse(np.asarray([])).shape == (0,)

    def test_round_trip_property(self):
        for dist in (uniform(0, 2), exponential(1.0), non_implement_dist()):
            iv = iron(dist)
            for c in np.linspace(dist.c_low + 1e-6, iv.c_high - 1e-6, 25):
                q = float(iv.value(c))
                assert iv.inverse(q) >= c - 1e-7
                assert q >= c - 1e-9  # ironed virtual cost dominates cost


class TestQuantile:
    def test_uniform_quarter(self):
        assert uniform(1, 5).quantile(0.25) == pytest.approx(2.0)

    def test_zero_is_low_end(self):
        assert exponential(2.0).quantile(0.0) == 0.0
        assert non_implement_dist().quantile(0.0) == 0.0

    def test_atom_plateau_left_endpoint(self):
        mix = mixture([(0.5, point_mass(1.0)), (0.5, uniform(0, 2))])
        # CDF jumps from 0.25 to 0.75 at c = 1
        for q in (0.3, 0.5, 0.74):
            assert mix.quantile(q) == pytest.approx(1.0, abs=1e-9)
        # scan-grid oracle
        grid = np.linspace(0, 2, 100_001)
        G = np.asarray(mix.cdf(grid))
        assert grid[np.argmax(G >= 0.5)] == pytest.approx(1.0, abs=1e-4)

    def test_round_trip(self):
        d = truncated_normal(1, 2, 0)
        for q in (0.1, 0.5, 0.93):
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-9)


class TestRhr:
    def test_uniform(self):
        assert rhr(uniform(0, 1), 0.5) == pytest.approx(2.0)

    def test_exponential_closed_form(self):
        got = rhr(exponential(1.0), 1.0)
        assert got == pytest.approx(math.exp(-1) / (1 - math.exp(-1)), rel=1e-12)

    def test_zero_cdf_raises(self):
        with pytest.raises(ZeroCdfError):
            rhr(uniform(0, 1), 0.0)


class TestSpecFormat:
    def test_round_trip(self):
        specs = [
            {"kind": "uniform", "low": 0.0, "high": 2.0},
            {"kind": "exponential", "rate": 0.5},
            {"kind": "truncated_normal", "mu": 1.0, "sigma": 2.0, "low": 0.0},
            {
                "kind": "mixture",
                "parts": [
                    {"weight": 0.9, "dist": {"kind": "atom", "at": 1.0}},
                    {"weight": 0.1, "dist": {"kind": "uniform", "low": 0.0, "high": 2.0}},
                ],
            },
            {
                "kind": "piecewise",
                "segments": [
                    {"from": 0.0, "to": 1.0, "density": 0.25},
                    {"from": 1.0, "to": 2.0, "density": 0.75},
                ],
            },
        ]
        for spec in specs:
            dist = from_spec(spec)
            dist2 = from_spec(to_spec(dist))
            probe = np.linspace(0, 3, 50)
            assert np.allclose(np.asarray(dist.cdf(probe)), np.asarray(dist2.cdf(probe)))

    def test_unknown_kind(self):
        with pytest.raises(Exception, match="unknown distribution kind"):
            from_spec({"kind": "beta"})
