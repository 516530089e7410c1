import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri_exp
from scipy.stats import truncnorm

import agency
from agency import (
    AtomPresentError,
    DistributionError,
    IronedVirtualCost,
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
    smoothed_point_mass,
    to_spec,
    truncated_normal,
    uniform,
)

from agency import typedist
from agency.typedist import _bisect, _exact, _log_ndtr, _ndtri_exp
from oracles import bisect_brackets_one_round_per_call, bisect_one_round_per_call, quantile_one_round_per_call


def run_probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``agency``:
    pytest's own ``pythonpath`` setting does not reach a child process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(agency.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})


def non_implement_dist():
    d = 20.0 / 23.0
    return piecewise([(0, 1, d), (1, 4, 0.025 * d), (4, 10, 0.0125 * d)])


#: Ironing inputs of the bisection oracle tests: the regular families, the
#: counterexample with its jumps, a zero-density gap and a two-bump density.
#: The piecewise-constant ones take the exact route and bisect nothing.
BISECT_DISTS = {
    "uniform": uniform(0, 2),
    "exponential": exponential(1.0),
    "truncated_normal": truncated_normal(1, 2, 0),
    "piecewise_down": piecewise([(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.2)]),
    "non_implement": non_implement_dist(),
    "gapped": mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))]),
    "two_bump": mixture([(0.4, uniform(0, 3)), (0.6, uniform(2, 5))]),
}

#: Non-regular inputs that bisect: a truncated normal above a gap, and two
#: truncated-normal bumps with a flat at about 10.23.
GRID_FLAT_DISTS = {
    "gapped_normal": mixture([(0.4, uniform(0, 3)), (0.6, truncated_normal(7, 1, 5))]),
    "normal_bumps": mixture([(0.4, truncated_normal(1, 0.3, 0)), (0.6, truncated_normal(6, 0.5, 0))]),
}


@pytest.fixture
def value_calls(monkeypatch):
    """The points of every ``IronedVirtualCost.value`` call, in call order."""
    calls, value = [], IronedVirtualCost.value
    monkeypatch.setattr(IronedVirtualCost, "value", lambda self, c: calls.append(c) or value(self, c))
    return calls


def spread_levels(iv: IronedVirtualCost, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` distinct levels spread along the cost axis; a hundred or more
    also hold both range ends, a level past each end and every flat level."""
    lo, hi = float(iv.values[0]), float(iv.values[-1])
    levels = np.interp(rng.random(n), np.linspace(0.0, 1.0, len(iv.values)), iv.values)
    if n >= 100:
        special = [lo - 1.0, hi + 1.0, lo, hi, *(level for _, _, level in iv.flats)]
        levels[: len(special)] = special
    levels = np.unique(levels)
    while len(levels) < n:  # levels drawn inside a flat coincide
        levels = np.unique(np.concatenate([levels, rng.uniform(lo, hi, n - len(levels))]))
    return levels


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

    def test_piecewise_arrays_built_once(self, monkeypatch):
        # the bounds, densities and cumulative masses are kept on the part
        part = piecewise([(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.2)]).parts[0][1]
        calls, cumsum = [], np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
        for _ in range(3):
            part.cdf(np.asarray([0.5, 2.5])), part.pdf(np.asarray([0.5]), "right"), part.quantile(0.7)
        assert len(calls) == 1

    def test_exact_route_reads_one_lazy_kink_table(self):
        # G linear between kinks: every CDF mode is one interpolation of a
        # table built on first use, within rounding of the part sum, with
        # NaN raising and values constant outside the support
        bumps = mixture([(0.3, uniform(0.0, 2.0)), (0.7, piecewise([(1, 2, 0.4), (2, 5, 0.2)]))])
        assert "_table" not in bumps.__dict__
        x = np.linspace(-1.0, 6.0, 701)
        parts = sum(w * p.cdf(x) for w, p in bumps.parts)
        for mode in (bumps.cdf, bumps.cdf_left, bumps.cdf_continuous):
            assert np.max(np.abs(mode(x) - parts)) <= 4e-16
        assert np.array_equal(bumps.__dict__["_table"][0], bumps.kinks())
        assert bumps.cdf(-1e300) == 0.0 and bumps.cdf(math.inf) == 1.0
        with pytest.raises(DistributionError, match="NaN"):
            bumps.cdf(np.asarray([1.0, math.nan]))
        assert exponential(1.0)._table is None and smoothed_point_mass(0.2)._table is None

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
        xs = np.array([1.0, 2.0, 4.0])  # beyond the short span, which takes the density's quadrature
        expected = -np.expm1(part._log_sf(xs) - part._log_sf(0.0))
        assert np.array_equal(part.cdf(xs), expected)  # bit for bit
        calls = []
        log_sf = type(part)._log_sf
        monkeypatch.setattr(type(part), "_log_sf", lambda self, x: calls.append(x) or log_sf(self, x))
        part.cdf(xs), part.pdf(xs, "right"), part.quantile(0.5)
        assert len(calls) == 1  # the cdf's own tail; the bound's is kept from the first call

    @pytest.mark.parametrize("mu, sigma", [(3.0, 2.0), (1.0, 2.5), (-8.0, 1.0), (0.0, 1.0), (10.0, 1.0)])
    def test_cdf_just_above_low_matches_mpmath(self, mu, sigma):
        # the two log tails cancel just above low: G(1e-12) on (3, 2) was
        # 3.1e-4 relative off, and the scans start at 1e-9 of the top
        d = truncated_normal(mu, sigma, 0.0)
        xs = sigma * np.logspace(-14, 1, 151)
        with mpmath.workdps(60):
            sf = [mpmath.ncdf((mu - mpmath.mpf(float(x))) / sigma) for x in (0.0, *xs)]
            ref = np.array([float((sf[0] - s) / sf[0]) for s in sf[1:]])
        assert np.max(np.abs(np.asarray(d.cdf(xs)) - ref) / ref) < 1e-13
        assert np.all(np.diff(np.asarray(d.cdf(xs))) >= 0)

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

    def test_scipy_imported_lazily(self, tmp_path):
        # the normal tails are the package's own kernel, so neither the
        # import nor a command on a truncated normal loads scipy
        probe = "import sys, agency.cli; print('scipy' in sys.modules)"
        out = run_probe(probe)
        assert out.stdout.strip() == "False"
        inputs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "inputs")
        with open(os.path.join(inputs, "uniform.json"), encoding="utf-8") as f:
            instance = json.load(f)
        instance["dist"] = {"kind": "truncated_normal", "mu": 1.0, "sigma": 2.5, "low": 0.0}
        path = tmp_path / "truncated_normal.json"
        path.write_text(json.dumps(instance))
        probe = (
            "import contextlib, io, sys\n"
            "from agency.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['analyze', '--instance', {str(path)!r}]) == 0\n"
            f"    assert main(['sweep-alpha', '--instance', {str(path)!r}]) == 0\n"
            f"    assert main(['verify', '--instance', {str(path)!r}, '--theorem', 'rev_implications',"
            " '--variant', 'truncated_normal']) == 0\n"
            "print('scipy' in sys.modules)"
        )
        out = run_probe(probe)
        assert out.stdout.strip() == "False", out.stderr

    def test_library_commands_leave_scipy_optimize_unimported(self):
        # the certificate and audit LPs are solved in the package, so no
        # command imports the solver, and no module names it
        inputs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "inputs")
        inst, menu = (os.path.join(inputs, f) for f in ("uniform.json", "menu5_instance.json"))
        probe = (
            "import contextlib, io, sys\n"
            "from agency import EXAMPLE_IDS\n"
            "from agency.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['verify', '--instance', {inst!r}, '--theorem', 'upper_n']) == 0\n"
            f"    assert main(['analyze', '--instance', {inst!r}]) == 0\n"
            f"    assert main(['check-ic', '--instance', {menu!r}, '--contract', {menu.replace('instance', 'contract')!r}]) == 0\n"
            "    for example in EXAMPLE_IDS:\n"
            "        assert main(['reproduce', example]) == 0\n"
            "print(len(EXAMPLE_IDS), 'scipy.optimize' in sys.modules)"
        )
        out = run_probe(probe)
        assert out.stdout.strip() == "6 False"
        package = os.path.dirname(os.path.abspath(agency.__file__))
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as f:
                    assert "scipy" not in f.read(), name  # numpy is the one runtime dependency


class TestNormalTailKernel:
    """``_log_ndtr`` (log Φ) and its inverse ``_ndtri_exp``, which replace
    ``scipy.special.log_ndtr`` and ``ndtri_exp``."""

    XS = np.linspace(-40.0, 12.0, 26001)

    def test_log_cdf_matches_mpmath(self):
        xs = np.concatenate([self.XS[::13], [-0.67448975, 0.67448975, np.nextafter(0.67448975, 1.0),
                                             -math.sqrt(32.0), np.nextafter(math.sqrt(32.0), 6.0), 1e-300, 0.0]])
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.log(mpmath.ncdf(mpmath.mpf(float(x))))) for x in xs])
        assert np.max(np.abs(_log_ndtr(xs) - ref) / np.abs(ref)) < 2e-14

    def test_inverse_matches_scipy(self):
        ys = np.concatenate([-np.logspace(-12.0, math.log10(600.0), 2001),
                             [-math.log(2.0), np.nextafter(-math.log(2.0), 0.0), np.nextafter(-math.log(2.0), -1.0)]])
        ref = ndtri_exp(ys)
        got = np.array([_ndtri_exp(float(y)) for y in ys])
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 2e-14

    def test_inverse_ends(self):
        assert _ndtri_exp(0.0) == math.inf and _ndtri_exp(-math.inf) == -math.inf
        assert math.isnan(_ndtri_exp(math.nan)) and math.isnan(_ndtri_exp(1.0))
        # e^y underflows: the asymptotic start; mpmath's root at 40 digits
        assert _ndtri_exp(-1e4) == pytest.approx(-141.37983987312716, rel=1e-15)

    def test_bits_independent_of_batch(self):
        whole = _log_ndtr(self.XS)
        for lo, hi in [(0, 1), (0, 26001), (5, 6), (13000, 13007), (1000, 25000), (25990, 26001), (17, 4113)]:
            assert np.array_equal(_log_ndtr(self.XS[lo:hi]), whole[lo:hi]), (lo, hi)
        for k in range(0, 26001, 997):
            assert _log_ndtr(self.XS[k]) == whole[k] and _log_ndtr(self.XS[k:k + 1].reshape(1, 1))[0, 0] == whole[k]
        assert np.array_equal(_log_ndtr(self.XS[::-1]), whole[::-1])
        assert np.array_equal(_log_ndtr(self.XS.reshape(-1, 1)).ravel(), whole)

    def test_no_warning_on_finite_input(self):
        big = [5e-324, 1e-300, 0.5, 1.0, 5.0, 6.0, 38.0, 40.0, 1e8, 1e154, 1.5e154, 1e170, 1e200, 1.7e308]
        xs = np.array([0.0, *big, *(-b for b in big)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _log_ndtr(xs)
            for y in (-1e-300, -5e-324, -1e-12, -0.5, -700.0, -1e300, -1.7e308):
                assert math.isfinite(_ndtri_exp(y))
        assert not np.isnan(out).any() and np.all(out <= 0.0)
        assert out[xs == 38.0][0] == pytest.approx(-2.8854283600688e-316, abs=1e-323)  # -Φ(-38), a subnormal
        assert out[xs == 40.0][0] == 0.0 and out[xs == -1e200][0] == -math.inf
        assert np.isnan(_log_ndtr(np.array([np.nan])))[0]


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
        iv = iron(exponential(1.0))
        lo, hi = float(iv.values[0]), float(iv.values[-1])
        assert iv.inverse(np.asarray([lo - 1.0, hi + 1.0])).tolist() == [iv.c_low, iv.c_high]

    def test_batch_matches_one_at_a_time(self):
        for dist in (uniform(0, 2), exponential(1.0), truncated_normal(1, 2, 0), non_implement_dist()):
            iv = iron(dist)
            lo, hi = float(iv.values[0]), float(iv.values[-1])
            # below and above the range, the range ends, the interior, and the
            # counterexample's jump levels (kink rule: 1 and 4; then 9)
            levels = np.concatenate([[lo - 1.0, hi + 1.0, lo, hi, 40.0, 50.0, 100.0], np.linspace(lo, hi, 23)])
            got = iv.inverse(levels)
            assert isinstance(got, np.ndarray) and got.shape == levels.shape
            # a fresh ironed object per level, so that no solved level is reused
            assert got.tolist() == [iron(dist).inverse(float(q)) for q in levels]
        iv = iron(non_implement_dist())
        assert iv.inverse(np.asarray([40.0, 50.0])).tolist() == [1.0, 4.0]
        assert iv.inverse(100.0) == pytest.approx(9.0, abs=1e-12)
        assert type(iv.inverse(50.0)) is float
        assert iv.inverse(np.asarray([])).shape == (0,)

    @pytest.mark.parametrize("name", sorted({**BISECT_DISTS, **GRID_FLAT_DISTS}))
    def test_batched_bisection_matches_one_round_per_call(self, name, monkeypatch):
        # live levels set the rounds of each priced path: 64 for up to 16
        # levels, fewer down to 8 at 128 and more, such as 5,000 levels in one
        # call of 40,000 points; then every flat level and grid values
        # of the ironed virtual cost, together and one at a time. The exact
        # route bisects nothing and agrees with the bisection to rounding.
        dist = {**BISECT_DISTS, **GRID_FLAT_DISTS}[name]
        iv = iron(dist)
        rng = np.random.default_rng(17)
        batches = [spread_levels(iv, n, rng) for n in (1, 5, 12, 30, 60, 100, 200, 5000)]
        assert [len(levels) for levels in batches] == [1, 5, 12, 30, 60, 100, 200, 5000]
        special = np.unique([*(level for _, _, level in iv.flats), *iv.values[::157]])
        bisections = []
        monkeypatch.setattr(typedist, "_bisect", lambda *a, f=typedist._bisect: bisections.append(a) or f(*a))
        for levels in [*batches, special, *special[:, None]]:
            # replace() gives a copy with no solved levels
            got, want = replace(iv).inverse(levels), bisect_one_round_per_call(iv, levels)
            if _exact(dist):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            else:
                assert got.tolist() == want.tolist()
        assert (bisections == []) == _exact(dist)

    def test_fresh_level_takes_at_most_twelve_value_calls(self, monkeypatch):
        # one round per call took 53 to 57 calls on these
        calls = []
        value = IronedVirtualCost.value
        monkeypatch.setattr(IronedVirtualCost, "value", lambda self, c: calls.append(c) or value(self, c))
        for dist in [*BISECT_DISTS.values(), *GRID_FLAT_DISTS.values()]:
            iv = iron(dist)
            before = len(calls)
            iv.inverse(float(np.median(iv.values)))
            # the exact route reads the level off the grid
            assert len(calls) - before == 0 if _exact(dist) else 2 <= len(calls) - before <= 12

    def test_fresh_median_level_takes_at_most_four_value_calls(self, value_calls):
        # the end values, then one predicted path per call
        for name, dist in BISECT_DISTS.items():
            iv = iron(dist)
            value_calls.clear()
            iv.inverse(float(np.median(iv.values)))
            assert len(value_calls) <= 4, name

    def test_jump_and_flat_levels_take_no_more_value_calls_than_the_tree(self, value_calls):
        # the six-round tree took 10 calls on each of these levels, where a
        # first prediction can be refuted early: jumps at the counterexample's
        # kinks, and flat levels whose root lies at or just past a flat's top
        cases = [(non_implement_dist(), level) for level in (40.0, 50.0, 100.0)]
        cases += [(dist, level) for dist in (BISECT_DISTS["gapped"], BISECT_DISTS["two_bump"], *GRID_FLAT_DISTS.values())
                  for *_, level in iron(dist).flats]
        for dist, level in cases:
            iv = iron(dist)
            value_calls.clear()
            iv.inverse(level)
            assert len(value_calls) <= 10, (dist, level)

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_kernel_matches_one_round_per_call_on_any_function(self, n):
        # f need not be monotone nor jump only at aimed points; a range of
        # 1e60 bisected to a small root runs into the 200-round cap; a start
        # bracket already closed still runs its first round; more levels
        # price shorter paths
        rng = np.random.default_rng(n)
        wavy, steps = (lambda x: np.sin(7.0 * x) + 0.1 * x), (lambda x: np.floor(3.0 * x))
        for f, lo, hi in ((wavy, 0.0, 20.0), (steps, 0.0, 5.0), (np.log1p, 0.0, 1e60), (steps, 1e6, 1e6 + 5e-10)):
            xs = np.linspace(lo, hi, 50)
            fs = np.maximum.accumulate(f(xs))
            q = np.append(rng.uniform(fs[0] - 0.5, fs[-1] + 0.5, n - 1), 0.25)
            got = _bisect(f, q, lo, hi, (xs, fs), rng.uniform(lo, hi, 3))
            want = bisect_brackets_one_round_per_call(f, q, lo, hi)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_nan_level_raises(self):
        iv = iron(exponential(1.0))
        for q in (math.nan, np.asarray([0.5, math.nan, 2.0])):
            with pytest.raises(ValueError, match="level nan"):
                iv.inverse(q)

    def test_infinite_levels_clamp(self):
        iv = iron(exponential(1.0))
        assert iv.inverse(-math.inf) == iv.c_low
        assert iv.inverse(math.inf) == iv.c_high
        assert iv.inverse(np.asarray([math.inf, -math.inf])).tolist() == [iv.c_high, iv.c_low]

    def test_levels_solve_alike_in_any_batch(self, value_calls):
        # nothing is kept between calls: a level's bits do not depend on the
        # levels solved with it; an empty batch makes no value call
        iv = iron(non_implement_dist())
        value_calls.clear()
        assert iv.inverse(np.asarray([])).tolist() == [] and value_calls == []
        levels = np.asarray([0.5, 40.0, 50.0, 100.0, 7.25])
        first = iv.inverse(levels)
        assert iv.inverse(levels[::-1]).tolist() == first[::-1].tolist()
        assert iv.inverse(50.0) == first[2]
        assert iv.inverse(np.asarray([3.0, 40.0, 3.0])).tolist() == [iv.inverse(3.0), first[1], iv.inverse(3.0)]

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

    @pytest.mark.parametrize("dist", [
        mixture([(0.5, point_mass(1.0)), (0.5, uniform(0, 2))]),
        mixture([(0.2, point_mass(0.5)), (0.3, point_mass(3.0)), (0.5, piecewise([(0, 1, 0.4), (1, 4, 0.2)]))]),
        mixture([(0.4, uniform(0, 3)), (0.6, uniform(5, 9))]),
        mixture([(0.3, exponential(2.0)), (0.7, uniform(1, 2))]),
        mixture([(0.25, point_mass(2.0)), (0.25, truncated_normal(1, 2, 0)), (0.5, exponential(0.5))]),
    ], ids=["atom_uniform", "atoms_piecewise", "gapped", "exponential_uniform", "atom_unbounded"])
    def test_matches_one_round_per_call(self, dist):
        # the batched bisection compares the same midpoints in the same
        # order, so it returns the same bits, atom plateaus and CDF jumps too
        levels = [*np.linspace(0.0, 1.0, 301).tolist(), 1e-12, 1.0 - 1e-12,
                  *(float(dist.cdf(a)) for a, _ in dist.atoms), *(float(dist.cdf_left(a)) for a, _ in dist.atoms)]
        assert [dist.quantile(q) for q in levels] == [quantile_one_round_per_call(dist, q) for q in levels]

    def test_closed_start_bracket(self):
        # two atoms closer than the bracket tolerance: the first round still runs
        dist = mixture([(0.5, point_mass(1e6)), (0.5, point_mass(1e6 + 5e-10))])
        for q in (0.25, 0.5, 0.75, 1.0):
            assert dist.quantile(q) == quantile_one_round_per_call(dist, q)
        assert dist.quantile(0.75) == 1e6 + 5e-10


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

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "piecewise", "segments": 5}, "segments"),
        ({"kind": "piecewise", "segments": [5]}, "segments"),
        ({"kind": "mixture", "parts": "ab"}, "parts"),
    ], ids=["int_segments", "int_segment", "string_parts"])
    def test_misshapen_lists_raise_named_error(self, spec, key):
        # each once raised a bare TypeError
        with pytest.raises(DistributionError, match=f"key '{key}' must be a list of objects"):
            from_spec(spec)

    def test_empty_piecewise_raises_named_error(self):
        with pytest.raises(DistributionError, match="at least one segment"):
            from_spec({"kind": "piecewise", "segments": []})
