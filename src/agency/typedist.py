"""Cost-type distributions: CDF/density closed forms, virtual cost, ironing.

A distribution is a weighted mixture of closed-form continuous parts
(uniform, exponential, truncated normal, piecewise-constant density) plus a
finite list of atoms. Atoms support the smoothed-analysis mixtures and the
point-mass counterexamples; the virtual-cost machinery refuses them.

The virtual cost of type ``c`` is ``c + G(c)/g(c)``. It is ironed in
quantile space, as in Myerson's optimal auction: the virtual cost
integrated against dG is exactly ``c G(c)``, so the ironed function is the
slope of the lower convex hull of the points ``(G(c), c G(c))``. Hull edges
become flats (zero-density gaps included); elsewhere the ironed function
follows the raw virtual cost. Mixtures of uniform and piecewise parts take
the exact route: G is linear between kinks, so flats are closed forms of
the kink table and the inverse is read off it. Every other distribution
takes the grid route: the hull of :data:`IRON_GRID` points, inverted by
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .instance import is_number

__all__ = [
    "DistributionError",
    "AtomPresentError",
    "UndefinedAtAtomError",
    "ZeroDensityError",
    "ZeroCdfError",
    "TypeDistribution",
    "IronedVirtualCost",
    "uniform",
    "exponential",
    "truncated_normal",
    "piecewise",
    "mixture",
    "point_mass",
    "from_spec",
    "iron",
    "ironed",
    "rhr",
]

MASS_TOL = 1e-12
CDF_FLOOR = 1e-12
TAIL_EPS = 1e-9
#: Uniform points of the ironing grid (density kinks are added to them).
IRON_GRID = 4096
#: Fewest and most rounds of one predicted bisection path (fewer as more levels
#: are live, for about 1,024 midpoints a pass).
_PATH_ROUNDS, _PATH_POINTS = (8, 64), 1024


class DistributionError(ValueError):
    """A distribution input or operation precondition is broken."""


class AtomPresentError(DistributionError):
    """Operation requires an atom-free distribution."""


class UndefinedAtAtomError(DistributionError):
    """Virtual cost evaluated exactly at an atom location."""


class ZeroDensityError(DistributionError):
    """Density vanishes where a positive value is required."""


class ZeroCdfError(DistributionError):
    """CDF vanishes where a positive value is required."""


def _checked(out: np.ndarray, x, xa: np.ndarray, what: str) -> np.ndarray | float:
    """``out`` as a float for a scalar input ``x``; a NaN raises instead."""
    if np.isscalar(x) or xa.ndim == 0:
        out = float(out)
        if out == out:
            return out
    elif not np.isnan(out).any():
        return out
    bad = np.ravel(xa)[np.isnan(np.ravel(out))][0]
    raise DistributionError(f"{what} is NaN at c={bad:g}")


@dataclass(frozen=True)
class UniformPart:
    low: float
    high: float
    turns = ()  # costs where g' changes sign between kinks
    log_slope = staticmethod(np.zeros_like)  # g'/g right of x on the support, else 0

    def support(self) -> tuple[float, float]:
        return self.low, self.high

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        d = 1.0 / (self.high - self.low)
        if side == "right":
            inside = (x >= self.low) & (x < self.high)
        else:
            inside = (x > self.low) & (x <= self.high)
        return np.where(inside, d, 0.0)

    def quantile(self, q: float) -> float:
        return self.low + q * (self.high - self.low)

    def kinks(self) -> tuple[float, ...]:
        return (self.low, self.high)


@dataclass(frozen=True)
class ExponentialPart:
    rate: float
    turns = ()

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        inside = x >= 0.0 if side == "right" else x > 0.0
        return np.where(inside, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def log_slope(self, x: np.ndarray) -> np.ndarray:
        return np.where(x >= 0.0, -self.rate, 0.0)

    def quantile(self, q: float) -> float:
        if q >= 1.0:
            return math.inf
        return -math.log1p(-q) / self.rate

    def kinks(self) -> tuple[float, ...]:
        return (0.0,)


#: Cody's rational Chebyshev approximations to the normal CDF (Math. Comp. 23,
#: 1969; ANORM in ACM TOMS 715, 1993), as R's ``pnorm`` evaluates them: A/B
#: for |x| <= 0.674 in x², C/D up to sqrt(32) in |x|, P/Q beyond in 1/x².
_A = (2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582, 18154.981253343561249,
      0.065682337918207449113)
_B = (47.20258190468824187, 976.09855173777669322, 10260.932208618978205, 45507.789335026729956)
_C = (0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979, 597.27027639480026226,
      2494.5375852903726711, 6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218,
      1.0765576773720192317e-8)
_D = (22.266688044328115691, 235.38790178262499861, 1519.377599407554805, 6485.558298266760755,
      18615.571640885098091, 34900.952721145977266, 38912.003286093271411, 19685.429676859990727)
_P = (0.21589853405795699, 0.1274011611602473639, 0.022235277870649807, 0.001421619193227893466,
      2.9112874951168792e-5, 0.02307344176494017303)
_Q = (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515, 0.00378239633202758244,
      7.29751555083966205e-5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: 5-point Gauss-Legendre nodes and weights on [-1, 1], as columns.
_GAUSS_5 = np.asarray([(0.0, 128.0 / 225.0), *(
    (s * math.sqrt(5.0 - 2.0 * r * math.sqrt(10.0 / 7.0)) / 3.0, (322.0 + 13.0 * r * math.sqrt(70.0)) / 900.0)
    for r in (1.0, -1.0) for s in (-1.0, 1.0))]).T[:, :, None]
#: Widest span above a truncated normal's ``low``, in sigmas over max(1, |z|)
#: at ``low``, whose CDF is the density's quadrature: there the two log
#: tails nearly cancel, while the 5-point rule stays within about 1e-15.
SHORT_SPAN = 0.25


def _rational(u: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """One of Cody's forms at ``u``: Horner's rule from the numerator's last
    coefficient and the denominator's implied leading one, the
    second-to-last numerator and the last denominator coefficient added
    without a final product, then their quotient."""
    n, d = num[-1] * u, u + den[0]
    n += num[0]
    n *= u
    d *= u
    for a, b in zip(num[1:-2], den[1:-1]):
        n += a
        n *= u
        d += b
        d *= u
    n += num[-2]
    d += den[-1]
    n /= d
    return n


def _log_ndtr(x) -> np.ndarray:
    """``log Φ(x)`` elementwise, as R's ``pnorm(log.p=TRUE)`` computes it.

    Near zero ``log(1/2 + x r(x²))``. Beyond, the smaller tail is
    ``exp(-y²/2) r(y)`` for ``y = |x|``, kept in log space: ``y²/2`` is
    split at ``trunc(16 y)/16`` so its leading part is exact; the larger tail
    is ``log1p`` of minus the smaller. Each element is priced by its own
    region's formula only, so its bits do not depend on the others; NaN
    stays NaN and no finite input warns."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty(x.shape)
    near = y <= 0.67448975
    t = x[near]
    if t.size:
        out[near] = np.log(0.5 + t * _rational(t * t, _A, _B))
        if t.size == out.size:
            return out
    tail = ~near  # NaN included: it takes the middle form and stays NaN
    t = np.minimum(y[tail], 1e170)  # beyond, log Φ(-y) is below -1e340 anyway
    far = t > math.sqrt(32.0)
    u = t[far]
    with np.errstate(over="ignore"):  # from 1e154 on y² overflows; so does the tail, to -inf
        if u.size:
            ratio = np.empty(t.shape)
            mid = ~far
            ratio[mid] = _rational(t[mid], _C, _D)
            r = 1.0 / (u * u)
            ratio[far] = (1.0 / math.sqrt(2.0 * math.pi) - r * _rational(r, _P, _Q)) / u
        else:
            ratio = _rational(t, _C, _D)
        sq = np.trunc(t * 16.0) / 16.0
        small = -sq * (sq * 0.5) - ((t - sq) * (t + sq)) * 0.5 + np.log(ratio)
    upper = x[tail] > 0.0  # there the smaller tail lies above x
    v = small[upper]
    if v.size:
        small[upper] = np.log1p(-np.exp(v))
    out[tail] = small
    return out


def _ndtri_exp(y: float) -> float:
    """The ``x`` with ``log Φ(x) = y``: Wichura's AS241 (Appl. Stat. 37, 1988,
    as :class:`statistics.NormalDist` holds it) on the smaller tail, or the
    asymptotic ``x² = -2y - log(-4πy)`` where ``e^y`` underflows, then Newton
    steps on :func:`_log_ndtr` until a step is below 1e-15 relative."""
    if not y < 0.0:
        return math.inf if y == 0.0 else math.nan
    if y == -math.inf:
        return -math.inf
    from statistics import NormalDist  # here only: programs without a truncated normal never load it

    if y > -math.log(2.0):
        x = -NormalDist().inv_cdf(-math.expm1(y))
    elif y > -700.0:
        x = NormalDist().inv_cdf(math.exp(y))
    else:
        x = -math.sqrt(2.0) * math.sqrt(-y - 0.5 * (math.log(4.0 * math.pi) + math.log(-y)))  # -2y may overflow
    for _ in range(16):
        log_cdf = float(_log_ndtr(x))
        # d log Φ / dx; far out in the lower tail the two logs would cancel,
        # and the Mills ratio's expansion is exact to rounding there
        slope = math.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_cdf) if x > -1e4 else -x - 1.0 / x
        if slope == 0.0:
            break
        step = (log_cdf - y) / slope
        x -= step
        if abs(step) <= 1e-15 * abs(x):
            break
    return x


@dataclass(frozen=True)
class TruncatedNormalPart:
    """Normal(mu, sigma) conditioned on being at least ``low``.

    Tails are ratios of normal survival functions taken in log space
    (:func:`_log_ndtr`), so a lower bound far above ``mu`` neither rounds the
    CDF to one nor divides zero by zero.
    """

    mu: float
    sigma: float
    low: float

    def _z(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mu) / self.sigma

    def _log_sf(self, x) -> np.ndarray:
        """Log of the untruncated normal mass above ``x``."""
        return _log_ndtr((self.mu - x) / self.sigma)

    @cached_property
    def _log_sf_low(self) -> float:  # log of the mass the truncation keeps
        return float(self._log_sf(self.low))

    def support(self) -> tuple[float, float]:
        return self.low, math.inf

    @cached_property
    def _short_mass(self) -> float:  # the log route's mass of the span the quadrature prices
        end = self.low + SHORT_SPAN * self.sigma / max(1.0, abs(self._z(self.low)))
        return float(-np.expm1(self._log_sf(end) - self._log_sf_low))

    @cached_property
    def _gauss(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(c, a, b)`` with the 5-point mass on [low, low + 2kσ] equal to
        ``k Σ exp(c - k (a + b k))``: node i sits at z_low + e_i k, e_i = 1 +
        ξ_i, so its log density is a quadratic in k, and its weight joins c."""
        z, e = self._z(self.low), 1.0 + _GAUSS_5[0]
        return np.log(_GAUSS_5[1]) - 0.5 * z * z - _LOG_SQRT_2PI - self._log_sf_low, z * e, 0.5 * e * e

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """One minus the ratio of the tails above ``x`` and ``low``; where
        those nearly cancel, below the mass of ``SHORT_SPAN`` sigmas over
        max(1, |z|) above ``low``, the density's 5-point Gauss-Legendre mass
        on [low, x]."""
        xs = np.maximum(np.ravel(x), self.low)
        val = -np.expm1(self._log_sf(xs) - self._log_sf_low)
        short = np.flatnonzero(val < self._short_mass)
        if short.size:
            c, a, b = self._gauss
            k = (xs[short] - self.low) / (2.0 * self.sigma)
            val[short] = k * np.exp(c - k * (a + b * k)).sum(axis=0)  # the nodes in one order
        return np.where(xs <= self.low, 0.0, np.maximum(val, 0.0)).reshape(np.shape(x))  # -expm1 <= 1

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        inside = x >= self.low if side == "right" else x > self.low
        z = self._z(x)
        dens = np.exp(-0.5 * z * z - self._log_sf_low) / (self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(inside, dens, 0.0)

    def log_slope(self, x: np.ndarray) -> np.ndarray:  # its sign is kept where the density underflows
        return np.where(x >= self.low, (self.mu - x) / self.sigma ** 2, 0.0)

    @property
    def turns(self) -> tuple[float, ...]:
        return (self.mu,)

    def quantile(self, q: float) -> float:
        if q >= 1.0:
            return math.inf
        return self.mu - self.sigma * _ndtri_exp(math.log1p(-q) + self._log_sf_low)

    def kinks(self) -> tuple[float, ...]:
        return (self.low,)


@dataclass(frozen=True)
class PiecewisePart:
    """Piecewise-constant density: ``densities[k]`` on ``(bounds[k], bounds[k+1]]``."""

    bounds: tuple[float, ...]
    densities: tuple[float, ...]
    turns = ()
    log_slope = staticmethod(np.zeros_like)

    def __post_init__(self) -> None:
        b = np.asarray(self.bounds, dtype=float)
        d = np.asarray(self.densities, dtype=float)
        if len(b) != len(d) + 1 or len(d) == 0:
            raise DistributionError("piecewise needs len(bounds) == len(densities) + 1")
        if (np.diff(b) <= 0).any():
            raise DistributionError("piecewise bounds must be strictly increasing")
        if (d < 0).any():
            raise DistributionError("piecewise densities must be non-negative")
        total = float(np.dot(d, np.diff(b)))
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"piecewise density integrates to {total:g}, expected 1")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # bounds, densities, mass below each bound
        b, d = np.asarray(self.bounds), np.asarray(self.densities)
        return b, d, np.concatenate([[0.0], np.cumsum(d * np.diff(b))])

    def support(self) -> tuple[float, float]:
        return self.bounds[0], self.bounds[-1]

    def cdf(self, x: np.ndarray) -> np.ndarray:
        b, d, cum = self._arrays
        xc = np.clip(x, b[0], b[-1])
        idx = np.clip(np.searchsorted(b, xc, side="right") - 1, 0, len(self.densities) - 1)
        val = cum[idx] + d[idx] * (xc - b[idx])
        return np.clip(val, 0.0, 1.0)

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        b, d, _ = self._arrays
        idx = np.searchsorted(b, x, side="right" if side == "right" else "left") - 1
        ok = (idx >= 0) & (idx < len(d))
        return np.where(ok, d[np.clip(idx, 0, len(d) - 1)], 0.0)

    def quantile(self, q: float) -> float:
        cum = self._arrays[2]
        k = int(np.searchsorted(cum, q, side="left"))
        k = min(max(k - 1, 0), len(self.densities) - 1)
        while k < len(self.densities) - 1 and cum[k + 1] < q:
            k += 1
        d = self.densities[k]
        if d <= 0:
            return self.bounds[k + 1]
        return self.bounds[k] + (q - cum[k]) / d

    def kinks(self) -> tuple[float, ...]:
        return tuple(self.bounds)


_Part = UniformPart | ExponentialPart | TruncatedNormalPart | PiecewisePart


@dataclass(frozen=True)
class TypeDistribution:
    """Mixture of weighted continuous parts plus atoms, total mass one."""

    parts: tuple[tuple[float, _Part], ...]
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        atoms = tuple(sorted((float(a), float(m)) for a, m in self.atoms))
        object.__setattr__(self, "atoms", atoms)
        total = sum(w for w, _ in self.parts) + sum(m for _, m in atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"total mass is {total!r}, expected 1 within {MASS_TOL:g}")
        if any(w <= 0 for w, _ in self.parts) or any(m <= 0 for _, m in atoms):
            raise DistributionError("component weights must be positive")
        if self.c_low < 0:
            raise DistributionError("support must be non-negative")
        if not self.parts and not atoms:
            raise DistributionError("distribution has no components")

    @property
    def c_low(self) -> float:
        lows = [p.support()[0] for _, p in self.parts] + [a for a, _ in self.atoms]
        return min(lows)

    @property
    def c_high(self) -> float:
        highs = [p.support()[1] for _, p in self.parts] + [a for a, _ in self.atoms]
        return max(highs)

    @property
    def has_atoms(self) -> bool:
        return bool(self.atoms)

    def effective_high(self) -> float:
        """Finite upper bound for grids: the ``1 - TAIL_EPS`` quantile if
        unbounded, priced once per distribution."""
        return self._effective_high

    @cached_property
    def _effective_high(self) -> float:
        hi = self.c_high
        return hi if math.isfinite(hi) else self.quantile(1.0 - TAIL_EPS)

    def kinks(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for _, p in self.parts:
            pts.update(p.kinks())
        pts.update(a for a, _ in self.atoms)
        return tuple(sorted(pts))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray] | None:  # (kinks, G(kinks)) for every CDF mode if _exact
        x = np.asarray(self.kinks())
        return (x, np.clip(sum(w * p.cdf(x) for w, p in self.parts), 0.0, 1.0)) if _exact(self) else None

    def _mixture_cdf(self, x, atoms: str) -> np.ndarray | float:
        """Weighted sum of the part CDFs plus, by ``atoms``, the mass of the
        atoms at or below ``x`` (``"at"``, clipped to [0, 1]), strictly
        below ``x`` (``"below"``, clipped), or none (``"none"``, unclipped)."""
        xa = np.asarray(x, dtype=float)
        if self._table is not None:
            return _checked(np.interp(xa, *self._table), x, xa, "CDF")
        out = np.zeros_like(xa)
        for w, p in self.parts:
            out = out + w * p.cdf(xa)
        if atoms != "none":
            for a, m in self.atoms:
                out = out + m * ((xa >= a) if atoms == "at" else (xa > a))
            out = np.clip(out, 0.0, 1.0)
        return _checked(out, x, xa, "CDF")

    def cdf(self, x) -> np.ndarray | float:
        """Right-continuous CDF, clamped outside the support."""
        return self._mixture_cdf(x, "at")

    def cdf_left(self, x) -> np.ndarray | float:
        """Left limit of the CDF (atoms at exactly ``x`` excluded)."""
        return self._mixture_cdf(x, "below")

    def cdf_continuous(self, x) -> np.ndarray | float:
        """CDF of the continuous part only (atom mass excluded)."""
        return self._mixture_cdf(x, "none")

    def pdf(self, x, side: str = "right") -> np.ndarray | float:
        xa = np.asarray(x, dtype=float)
        out = np.zeros_like(xa)
        for w, p in self.parts:
            out = out + w * p.pdf(xa, side)
        return _checked(out, x, xa, "density")

    def quantile(self, q: float) -> float:
        """Generalized inverse ``inf{c : G(c) >= q}``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile level must be in [0, 1]")
        if q == 0.0:
            return self.c_low
        if len(self.parts) == 1 and not self.atoms:
            return self.parts[0][1].quantile(q)
        lo = self.c_low
        hi = self.c_high
        if math.isinf(hi):
            hi = max((p.quantile(min(q + (1 - q) / 2, 1 - 1e-15)) if math.isinf(p.support()[1]) else p.support()[1])
                     for _, p in self.parts)
            hi = max(hi, lo + 1.0)
            while float(self.cdf(hi)) < q and math.isfinite(hi):
                hi *= 2.0
        ends = np.asarray([float(self.cdf(lo)), float(self.cdf(hi))])
        if not ends[0] < q <= ends[1]:
            return math.inf if ends[1] < q else lo
        # cdf(m) < q, the test that raises lo, is cdf(m) <= the float below q
        hi = float(_bisect(self.cdf, np.asarray([np.nextafter(q, -math.inf)]), lo, hi,
                           (np.asarray([lo, hi]), ends), [a for a, _ in self.atoms])[1][0])
        for a, _ in self.atoms:
            if abs(hi - a) <= 1e-9 * max(1.0, abs(a)) and float(self.cdf_left(a)) < q <= float(self.cdf(a)):
                return a
        return hi

    def virtual_cost(self, x) -> np.ndarray | float:
        """Virtual cost ``c + G(c)/g(c)``.

        Undefined exactly at an atom; raises when the density vanishes.
        Atoms strictly below ``x`` are fine, their mass is folded into G.
        The density is the right-hand one, or the left-hand one where the
        right-hand one vanishes (at the support top and at the start of a
        zero-density gap).
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._virtual(xa, np.asarray(self.cdf(xa), dtype=float))
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def _virtual(self, xa: np.ndarray, G: np.ndarray) -> np.ndarray:
        """:meth:`virtual_cost` at the costs ``xa`` whose CDF values are ``G``."""
        for a, _ in self.atoms:
            if np.any(np.abs(xa - a) <= 1e-12 * max(1.0, abs(a))):
                raise UndefinedAtAtomError(f"virtual cost undefined at atom {a:g}")
        g = np.asarray(self.pdf(xa, side="right"), dtype=float)
        use_left = g <= 0
        if use_left.any():
            g = np.where(use_left, np.asarray(self.pdf(xa, side="left"), dtype=float), g)
        if (g <= 0).any():
            bad = float(xa[np.argmax(g <= 0)])
            raise ZeroDensityError(f"density is zero at c={bad:g}")
        return xa + G / g

    def reverse_hazard_rate(self, x) -> np.ndarray | float:
        """Reverse hazard rate ``g(c) / G(c)``; errors where G vanishes."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        G = np.asarray(self.cdf(xa), dtype=float)
        if (G <= CDF_FLOOR).any():
            bad = float(xa[np.argmax(G <= CDF_FLOOR)])
            raise ZeroCdfError(f"CDF below {CDF_FLOOR:g} at c={bad:g}")
        out = np.asarray(self.pdf(xa, side="right"), dtype=float) / G
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling, used by Monte-Carlo cross-checks."""
        comp_w = [w for w, _ in self.parts] + [m for _, m in self.atoms]
        cum = np.cumsum(comp_w)
        pick = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        u = rng.random(size)
        out = np.empty(size)
        for k, (_, part) in enumerate(self.parts):
            mask = pick == k
            if mask.any():
                out[mask] = [part.quantile(v) for v in u[mask]]
        for j, (a, _) in enumerate(self.atoms):
            mask = pick == len(self.parts) + j
            out[mask] = a
        return out


def rhr(dist: TypeDistribution, c) -> np.ndarray | float:
    """Reverse hazard rate of ``dist`` at ``c``."""
    return dist.reverse_hazard_rate(c)


# ---------------------------------------------------------------------------
# constructors and the file-format parser


def uniform(low: float, high: float) -> TypeDistribution:
    if not low < high:
        raise DistributionError("uniform needs low < high")
    return TypeDistribution(parts=((1.0, UniformPart(float(low), float(high))),))


def exponential(rate: float) -> TypeDistribution:
    if rate <= 0:
        raise DistributionError("exponential rate must be positive")
    return TypeDistribution(parts=((1.0, ExponentialPart(float(rate))),))


def truncated_normal(mu: float, sigma: float, low: float = 0.0) -> TypeDistribution:
    if sigma <= 0:
        raise DistributionError("truncated_normal sigma must be positive")
    return TypeDistribution(parts=((1.0, TruncatedNormalPart(float(mu), float(sigma), float(low))),))


def piecewise(segments: Iterable[tuple[float, float, float]]) -> TypeDistribution:
    """Piecewise-constant density from ``(from, to, density)`` triples."""
    segs = sorted((float(a), float(b), float(d)) for a, b, d in segments)
    if not segs:
        raise DistributionError("piecewise needs at least one segment")
    bounds = [segs[0][0]]
    dens = []
    for a, b, d in segs:
        if abs(a - bounds[-1]) > 1e-12:
            raise DistributionError(f"piecewise segments must be contiguous, gap at {a:g}")
        bounds.append(b)
        dens.append(d)
    return TypeDistribution(parts=((1.0, PiecewisePart(tuple(bounds), tuple(dens))),))


def point_mass(at: float) -> TypeDistribution:
    return TypeDistribution(parts=(), atoms=((float(at), 1.0),))


def mixture(components: Iterable[tuple[float, TypeDistribution]]) -> TypeDistribution:
    """Weighted mixture; nested mixtures flatten, equal-location atoms merge."""
    parts: list[tuple[float, _Part]] = []
    atom_mass: dict[float, float] = {}
    for w, sub in components:
        if w <= 0:
            raise DistributionError("mixture weights must be positive")
        for ws, p in sub.parts:
            parts.append((w * ws, p))
        for a, m in sub.atoms:
            atom_mass[a] = atom_mass.get(a, 0.0) + w * m
    return TypeDistribution(parts=tuple(parts), atoms=tuple(sorted(atom_mass.items())))


def from_spec(spec: dict) -> TypeDistribution:
    """Build a distribution from its tagged-record file representation."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DistributionError("distribution spec must be an object with a 'kind' key")
    kind = spec["kind"]

    def num(record: dict, key: str, where: str = ""):
        if not is_number(record[key]):
            raise DistributionError(f"distribution kind '{kind}' key '{where}{key}' must be a finite number, "
                                    f"got {record[key]!r}")
        return record[key]

    def records(key: str) -> list:
        if not isinstance(spec[key], (list, tuple)) or not all(isinstance(r, dict) for r in spec[key]):
            raise DistributionError(f"distribution kind '{kind}' key '{key}' must be a list of objects, "
                                    f"got {spec[key]!r}")
        return spec[key]

    try:
        if kind == "uniform":
            return uniform(num(spec, "low"), num(spec, "high"))
        if kind == "exponential":
            return exponential(num(spec, "rate"))
        if kind == "truncated_normal":
            return truncated_normal(num(spec, "mu"), num(spec, "sigma"), num({"low": 0.0, **spec}, "low"))
        if kind == "piecewise":
            return piecewise(tuple(num(s, key, f"segments[{i}].") for key in ("from", "to", "density"))
                             for i, s in enumerate(records("segments")))
        if kind == "mixture":
            return mixture((num(p, "weight", f"parts[{i}]."), from_spec(p["dist"]))
                           for i, p in enumerate(records("parts")))
        if kind == "atom":
            return point_mass(num(spec, "at"))
    except KeyError as exc:
        raise DistributionError(f"distribution kind '{kind}' missing key {exc}") from None
    raise DistributionError(f"unknown distribution kind '{kind}'")


def to_spec(dist: TypeDistribution) -> dict:
    """File representation of ``dist`` (inverse of :func:`from_spec`)."""
    comps: list[dict] = []
    for w, p in dist.parts:
        if isinstance(p, UniformPart):
            d = {"kind": "uniform", "low": p.low, "high": p.high}
        elif isinstance(p, ExponentialPart):
            d = {"kind": "exponential", "rate": p.rate}
        elif isinstance(p, TruncatedNormalPart):
            d = {"kind": "truncated_normal", "mu": p.mu, "sigma": p.sigma, "low": p.low}
        else:
            d = {
                "kind": "piecewise",
                "segments": [
                    {"from": a, "to": b, "density": dd}
                    for a, b, dd in zip(p.bounds[:-1], p.bounds[1:], p.densities)
                ],
            }
        comps.append({"weight": w, "dist": d})
    for a, m in dist.atoms:
        comps.append({"weight": m, "dist": {"kind": "atom", "at": a}})
    if len(comps) == 1 and comps[0]["weight"] == 1.0:
        return comps[0]["dist"]
    return {"kind": "mixture", "parts": comps}


# ---------------------------------------------------------------------------
# ironing


def _exact(dist: TypeDistribution) -> bool:
    """Whether ``dist`` is ironed on the exact route: G is piecewise linear."""
    return not dist.atoms and all(isinstance(p, (UniformPart, PiecewisePart)) for _, p in dist.parts)


@dataclass(frozen=True)
class IronedVirtualCost:
    """Ironed virtual cost: follows the raw virtual cost outside flats.

    Attributes:
        grid: ascending costs over the range that carries mass: the density
            kinks and flat ends on the exact route, the ironing grid on the
            grid route (see :func:`iron`).
        values: ironed virtual cost at the grid points, with the right-hand
            density, or the left-hand one at the top and at the start of a
            zero-density gap; on the exact route clipped to the level of a
            flat the point ends or starts.
        flats: ``(lo, hi, level)`` intervals where the ironed function is
            ``level``, the dG-weighted mean of the virtual cost over them.
    """

    grid: np.ndarray
    values: np.ndarray
    flats: tuple[tuple[float, float, float], ...]
    dist: TypeDistribution

    @property
    def c_low(self) -> float:
        return float(self.grid[0])

    @property
    def c_high(self) -> float:
        return float(self.grid[-1])

    def value(self, c) -> np.ndarray | float:
        """Ironed virtual cost, clamped to the grid's cost range.

        Inside a flat this is the flat's level. Elsewhere on the exact route
        it is the value at the grid point below plus twice the distance to
        it. On the grid route a point inside a flat is moved to the flat's
        lower end (a hull vertex) before the raw virtual cost is evaluated,
        so it is never evaluated in a zero-density gap.
        """
        xa = np.clip(np.atleast_1d(np.asarray(c, dtype=float)), self.c_low, self.c_high)
        inside = [((xa > lo) & (xa < hi), lo, lev) for lo, hi, lev in self.flats]
        if _exact(self.dist):
            i = np.searchsorted(self.grid, xa, side="right") - 1
            out = self.values[i] + 2.0 * (xa - self.grid[i])
        else:
            safe = xa
            for mask, lo, _ in inside:
                safe = np.where(mask, lo, safe)
            out = np.atleast_1d(np.asarray(self.dist.virtual_cost(safe), dtype=float))
        for mask, _, lev in inside:
            out[mask] = lev
        return _checked(out[0] if np.ndim(c) == 0 else out, c, np.asarray(c, dtype=float), "ironed virtual cost")

    def inverse(self, q: float | np.ndarray) -> np.ndarray | float:
        """Largest cost whose ironed virtual cost does not exceed ``q``, for
        a level or an array of levels; a NaN level raises ``ValueError``.

        On the exact route each level is read off the grid: ``(q - e_k)/2``
        in its cell, or a kink or a flat's top. On the grid route the
        distinct levels are solved by one bisection, pricing one predicted
        path per level and ``value`` call. Either way a level's bits do not
        depend on the levels it is solved with."""
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        if np.isnan(qa).any():
            raise ValueError("cannot invert the ironed virtual cost at level nan")
        if _exact(self.dist):  # slope 2 between grid points, except on flats
            x, start, base = self.grid, self.values[:-1].copy(), self.grid[:-1].copy()
            for lo, hi, level in self.flats:
                on = (x[:-1] >= lo) & (x[:-1] < hi)
                start[on], base[on] = level, x[1:][on]
            i = np.maximum(np.searchsorted(start, qa, side="right") - 1, 0)
            out = np.minimum(base[i] + 0.5 * (qa - start[i]), x[i + 1])
            out = np.where(qa < start[0], x[0], np.where(qa >= self.values[-1], x[-1], out))
        else:
            levels, back = np.unique(qa, return_inverse=True)
            out = self._bisect(levels)[back].reshape(qa.shape) if qa.size else qa
        return float(out[0]) if np.ndim(q) == 0 else out

    def _bisect(self, qa: np.ndarray) -> np.ndarray:
        """:meth:`inverse` at each level of ``qa``, by one :func:`_bisect` on
        all levels together. Its first predictions read ``values`` with each
        flat at its level and each point at the least value from it on, so a
        flat's level leads to the flat's top; kinks and flat ends are aims."""
        v_low, v_high = self.value(np.asarray([self.c_low, self.c_high]))
        below, above = qa < v_low, qa >= v_high
        live = ~(below | above)
        kinks = np.asarray(self.dist.kinks())
        least = self.values.copy()
        for a, b, level in self.flats:
            least[(self.grid > a) & (self.grid < b)] = level
        least = np.minimum.accumulate(least[::-1])[::-1]
        lo, hi = np.full(qa.shape, self.c_low), np.full(qa.shape, self.c_high)
        lo[live], hi[live] = _bisect(self.value, qa[live], self.c_low, self.c_high, (self.grid, least),
                                     [*kinks, *(end for flat in self.flats for end in flat[:2])])
        # a bracket this tight that still contains a density kink means the
        # ironed virtual cost jumps across q there; the supremum is the kink
        bracketed = (lo[:, None] <= kinks) & (kinks <= hi[:, None])
        out = np.where(bracketed.any(axis=1), kinks[bracketed.argmax(axis=1)], lo)
        return np.where(below, self.c_low, np.where(above, self.c_high, out))


def _bisect(f, q: np.ndarray, lo: float, hi: float, table, aims) -> tuple[np.ndarray, np.ndarray]:
    """Brackets ``(lo, hi)`` after bisecting ``[lo, hi]`` for each level of
    ``q`` for at most 200 rounds; each stops once its bracket closes. A round
    raises lo to its midpoint m where ``f(m) <= q[k]``, else lowers hi to m.

    Each pass prices a predicted path per open bracket in one ``f`` call: the
    midpoints ``0.5 * (lo + hi)`` that bisecting toward a predicted root
    visits. The rounds whose comparisons match the prediction are kept, and
    the first one that does not, so the rounds and their bits are
    bisection's own whether or not ``f`` is monotone. The first prediction
    is a secant in the cell of ``table`` (points, ascending values) that
    brackets the level, later ones a secant on the kept bracket's evaluated
    ends; a point of ``aims`` in that cell or bracket is aimed at instead,
    and a prediction outside the bracket aims at its midpoint.
    """
    xs, fs = table
    i = np.clip(np.searchsorted(fs, q, side="right") - 1, 0, len(xs) - 2)
    aims = np.append(np.unique(aims), math.inf)
    lo, hi = np.full(len(q), float(lo)), np.full(len(q), float(hi))
    state = [lo, hi, q, xs[i], fs[i], xs[i + 1], fs[i + 1], np.zeros(len(q), dtype=int), np.arange(len(q))]
    while len(state[-1]):
        l, h, t, a, fa, b, fb, rounds, at = state  # (a, fa) and (b, fb) predict
        with np.errstate(divide="ignore", invalid="ignore"):
            aim = a + (t - fa) / (fb - fa) * (b - a)
        aim = np.where((l <= aim) & (aim <= h), aim, 0.5 * (l + h))
        point = aims[np.searchsorted(aims, a)]
        aim = np.where(point <= b, point, aim)
        mids, last = _path(l, h, aim, int(np.clip(_PATH_POINTS // len(at), *_PATH_ROUNDS)))
        depth, cols, row = len(mids), np.arange(len(mids))[:, None], np.arange(len(at))
        vals = f(mids.ravel()).reshape(mids.shape)
        left = vals <= t
        # the first round that refutes the prediction or ends the path
        stop = (cols + depth * ((left == (mids <= aim)) & (cols < np.minimum(last, 199 - rounds)))).min(axis=0)
        kept = cols <= stop
        jl = ((cols + 1) * (left & kept)).max(axis=0) - 1  # the last kept round that raised lo
        jh = ((cols + 1) * (~left & kept)).max(axis=0) - 1
        up, down = jl >= 0, jh >= 0  # where not, the row gathered is discarded
        l, a, fa = (np.where(up, x[jl, row], y) for x, y in ((mids, l), (mids, a), (vals, fa)))
        h, b, fb = (np.where(down, x[jh, row], y) for x, y in ((mids, h), (mids, b), (vals, fb)))
        rounds = rounds + stop + 1
        lo[at], hi[at] = l, h
        still = (h - l > 1e-15 * np.maximum(1.0, np.abs(h))) & (rounds < 200)
        state = [x[still] for x in (l, h, t, a, fa, b, fb, rounds, at)]
    return lo, hi


def _path(l: np.ndarray, h: np.ndarray, aim: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of up to ``depth`` rounds bisecting each ``[l, h]`` toward
    ``aim``, one row per round, and the round each bracket closes at (else
    the last), the first round even on a closed bracket."""
    rows = []
    for l, h, t in zip(l.tolist(), h.tolist(), aim.tolist()):
        row = []
        while len(row) < depth and (not row or h - l > 1e-15 * max(1.0, abs(h))):
            m = 0.5 * (l + h)
            row.append(m)
            l, h = (m, h) if m <= t else (l, m)
        rows.append(row)
    width = max(map(len, rows))
    return np.asarray([row + row[-1:] * (width - len(row)) for row in rows]).T, np.asarray([len(r) - 1 for r in rows])


def _lower_hull(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the lower convex hull vertices, by a monotone chain."""
    x, y, hull = x.tolist(), y.tolist(), []
    for i in range(len(x)):
        while len(hull) >= 2 and ((x[hull[-1]] - x[hull[-2]]) * (y[i] - y[hull[-2]])
                                  - (y[hull[-1]] - y[hull[-2]]) * (x[i] - x[hull[-2]])) <= 0:
            hull.pop()
        hull.append(i)
    return hull


def _tangent(x: list, G: list, d: list, e: list, u: int, v: int) -> tuple[float, float, float] | None:
    """``(level, touch on u, touch on v)`` of the line in the ``(G, c G)``
    plane that touches elements ``u < v`` of the kink table from below, or
    None. Element ``2k`` is kink ``k``, ``2k + 1`` cell ``k``: there
    ``G = d_k (c + e_k)``, and the line of slope L touches at ``(L - e_k)/2``.
    Adjacent elements meet at their kink, at the cell's virtual cost there."""
    (a, cu), (b, cv) = divmod(u, 2), divmod(v, 2)
    if cu and d[a] <= 0 or cv and d[b] <= 0:
        return None
    if v == u + 1:
        return 2.0 * x[b] + e[a], x[b], x[b]
    if cu and cv:  # d_i (L + e_i)^2 = d_j (L + e_j)^2
        ri, rj = math.sqrt(d[a]), math.sqrt(d[b])
        level = (rj * e[b] - ri * e[a]) / (ri - rj) if ri != rj else math.nan
    elif cu or cv:  # d_i (L + e_i)^2 = 4 G_k (L - x_k), the root on the kink's side
        i, k = (a, b) if cu else (b, a)
        A, g = G[k], G[i] + d[i] * (x[k] - x[i])  # g: the cell's G line at x_k
        root = math.sqrt(A * (A - g)) if A >= g else math.nan
        level = (2.0 * A * g / (d[i] * (A + root)) if cu else 2.0 * (A + root) / d[i]) - e[i]
    else:  # the chord
        level = (x[b] * G[b] - x[a] * G[a]) / (G[b] - G[a]) if G[b] > G[a] else math.nan
    ends = 0.5 * (level - e[a]) if cu else x[a], 0.5 * (level - e[b]) if cv else x[b]
    if level != level or cu and not x[a] <= ends[0] <= x[a + 1] or cv and not x[b] <= ends[1] <= x[b + 1]:
        return None
    return level, *ends


def _iron_exact(dist: TypeDistribution, x: np.ndarray, G: np.ndarray) -> IronedVirtualCost:
    """:func:`iron` on a piecewise-linear G with kinks ``x`` and CDF ``G``:
    from the current kink or cell the hull moves to the later element of
    lowest tangent level (the later on ties); a move past other elements is
    a flat at that level. O(K^2) tangents for K cells."""
    d = np.asarray(dist.pdf(x[:-1], side="right"), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = G[:-1] / d - x[:-1]
    xs, Gs, ds, es = x.tolist(), G.tolist(), d.tolist(), e.tolist()
    u, pos, flats, last = 0, xs[0], [], 2 * len(xs) - 2
    while u < last:
        best = (math.inf,)
        for v in range(u + 1, last + 1):
            t = _tangent(xs, Gs, ds, es, u, v)
            if t is not None and t[0] <= best[0]:
                best = (*t, v)
        level, start, end, v = best
        if v > u + 1 and end > max(start, pos):
            flats.append((max(start, pos), end, level))
        u, pos = v, end
    grid = np.unique(np.concatenate([x, [end for flat in flats for end in flat[:2]]]))
    values, dens = np.full(len(grid), math.nan), np.append(d, 0.0)
    with np.errstate(divide="ignore"):  # a kink inside a gap lies inside a flat
        values[np.searchsorted(grid, x)] = x + G / np.where(dens > 0, dens, np.insert(d, 0, 0.0))
    for lo, hi, level in flats:
        values[(grid > lo) & (grid < hi)] = level
        values[grid == hi] = np.fmax(values[grid == hi], level)
        values[grid == lo] = np.fmin(values[grid == lo], level)
    return IronedVirtualCost(grid=grid, values=values, flats=tuple(flats), dist=dist)


def iron(dist: TypeDistribution) -> IronedVirtualCost:
    """Iron the virtual cost in quantile space (Myerson 1981).

    For an atom-free G the integrated virtual cost is exact without
    quadrature: ``∫_{c_low}^c φ dG = c G(c)``, and the ironed virtual cost
    is the slope of the lower convex hull of the points ``(G(c), c G(c))``
    over the range that carries mass. A zero-density gap is a single
    quantile, which the hull bridges with a flat.

    Exact route, for a piecewise-linear G (:func:`_exact`): the hull is
    walked over the kink table, with each flat in closed form
    (:func:`_iron_exact`); ``grid`` holds the kinks and the flat ends.

    Grid route, otherwise: ``grid`` is a uniform grid refined with the
    density kinks. A hull edge that skips grid points is a flat at the
    edge's slope; at the hull's vertices the raw virtual cost is kept. When
    the chord slopes already increase, the virtual cost is followed
    pointwise.
    """
    if dist.has_atoms:
        raise AtomPresentError("ironing requires an atom-free distribution")
    lo, hi = dist.c_low, dist.effective_high()
    ends = np.asarray([lo, *(k for k in dist.kinks() if lo < k < hi), hi])
    # drop zero-density stretches at the ends: the grid runs from the last
    # kink with G = 0 to the first with G = G(hi); on the exact route, the CDF's kink table
    ends, G_ends = dist._table or (ends, np.asarray(dist.cdf(ends), dtype=float))
    keep = slice(np.flatnonzero(G_ends > G_ends[0])[0] - 1, np.flatnonzero(G_ends < G_ends[-1])[-1] + 2)
    if _exact(dist):
        return _iron_exact(dist, ends[keep], G_ends[keep])
    ends = ends[keep]
    grid = np.unique(np.concatenate([np.linspace(ends[0], ends[-1], IRON_GRID), ends[1:-1]]))
    G = np.asarray(dist.cdf(grid), dtype=float)
    cG = grid * G

    dG = np.diff(G)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.diff(cG) / dG
    tol = 1e-10 * np.maximum(1.0, np.abs(chord[:-1]))
    # a zero-density stretch (dG = 0) always needs the hull to bridge it
    if np.all(dG > 0) and np.all(np.diff(chord) >= -tol):
        return IronedVirtualCost(grid=grid, values=dist._virtual(grid, G), flats=(), dist=dist)

    hull = np.asarray(_lower_hull(G, cG))
    a, b = hull[:-1], hull[1:]
    flat = (b > a + 1) & (G[b] > G[a])
    a, b = a[flat], b[flat]
    flats = tuple(zip(grid[a].tolist(), grid[b].tolist(), ((cG[b] - cG[a]) / (G[b] - G[a])).tolist()))
    # the ironed value at the grid: a flat's level strictly inside it, else
    # the raw virtual cost from the grid's own G
    values, off = np.empty(len(grid)), np.ones(len(grid), dtype=bool)
    for lo, hi, level in flats:
        on = (grid > lo) & (grid < hi)
        values[on], off = level, off & ~on
    values[off] = dist._virtual(grid[off], G[off])
    return IronedVirtualCost(grid=grid, values=np.maximum.accumulate(values), flats=flats, dist=dist)


@lru_cache(maxsize=64)
def ironed(dist: TypeDistribution) -> IronedVirtualCost:
    """Cached :func:`iron`; distributions are immutable so this is safe."""
    return iron(dist)
