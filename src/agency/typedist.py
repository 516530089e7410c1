"""Cost-type distributions: CDF/density closed forms, virtual cost, ironing.

A distribution is a weighted mixture of closed-form continuous parts
(uniform, exponential, truncated normal, piecewise-constant density) plus a
finite list of atoms. Atoms support the smoothed-analysis mixtures and the
point-mass counterexamples; the virtual-cost machinery refuses them.

The virtual cost of type ``c`` is ``c + G(c)/g(c)``. It is ironed in
quantile space, as in Myerson's optimal auction: the virtual cost
integrated against dG is exactly ``c G(c)``, so the lower convex hull of the
points ``(G(c), c G(c))`` on a kink-refined grid gives the ironed function
as its slope. Hull edges that skip grid points become flats (zero-density
gaps included); everywhere else the ironed function follows the raw
virtual cost exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

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
#: are live, for about 1,024 midpoints a pass), and the most points one call
#: prices, since a larger call costs more per point.
_PATH_ROUNDS, _PATH_POINTS, _CALL_POINTS = (8, 64), 1024, 8192


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

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        inside = x >= 0.0 if side == "right" else x > 0.0
        return np.where(inside, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile(self, q: float) -> float:
        if q >= 1.0:
            return math.inf
        return -math.log1p(-q) / self.rate

    def kinks(self) -> tuple[float, ...]:
        return (0.0,)


@dataclass(frozen=True)
class TruncatedNormalPart:
    """Normal(mu, sigma) conditioned on being at least ``low``.

    Tails are ratios of normal survival functions taken in log space, so a
    lower bound far above ``mu`` neither rounds the CDF to one nor divides
    zero by zero. ``scipy.special`` is imported here only, on first use.
    """

    mu: float
    sigma: float
    low: float

    def _z(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mu) / self.sigma

    def _log_sf(self, x) -> np.ndarray:
        """Log of the untruncated normal mass above ``x``."""
        from scipy.special import log_ndtr

        return log_ndtr(-self._z(x))

    @cached_property
    def _log_sf_low(self) -> float:  # log of the mass the truncation keeps
        return self._log_sf(self.low)

    def support(self) -> tuple[float, float]:
        return self.low, math.inf

    def cdf(self, x: np.ndarray) -> np.ndarray:
        val = -np.expm1(self._log_sf(np.maximum(x, self.low)) - self._log_sf_low)
        return np.where(x <= self.low, 0.0, np.clip(val, 0.0, 1.0))

    def pdf(self, x: np.ndarray, side: str) -> np.ndarray:
        inside = x >= self.low if side == "right" else x > self.low
        z = self._z(x)
        dens = np.exp(-0.5 * z * z - self._log_sf_low) / (self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(inside, dens, 0.0)

    def quantile(self, q: float) -> float:
        if q >= 1.0:
            return math.inf
        from scipy.special import ndtri_exp

        return self.mu - self.sigma * float(ndtri_exp(math.log1p(-q) + self._log_sf_low))

    def kinks(self) -> tuple[float, ...]:
        return (self.low,)


@dataclass(frozen=True)
class PiecewisePart:
    """Piecewise-constant density: ``densities[k]`` on ``(bounds[k], bounds[k+1]]``."""

    bounds: tuple[float, ...]
    densities: tuple[float, ...]

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
        """Finite upper bound for grids: the ``1 - TAIL_EPS`` quantile if unbounded."""
        hi = self.c_high
        return hi if math.isfinite(hi) else self.quantile(1.0 - TAIL_EPS)

    def kinks(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for _, p in self.parts:
            pts.update(p.kinks())
        pts.update(a for a, _ in self.atoms)
        return tuple(sorted(pts))

    def _mixture_cdf(self, x, atoms: str) -> np.ndarray | float:
        """Weighted sum of the part CDFs plus, by ``atoms``, the mass of the
        atoms at or below ``x`` (``"at"``, clipped to [0, 1]), strictly
        below ``x`` (``"below"``, clipped), or none (``"none"``, unclipped)."""
        xa = np.asarray(x, dtype=float)
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
        out = xa + np.asarray(self.cdf(xa), dtype=float) / g
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

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
    try:
        if kind == "uniform":
            return uniform(spec["low"], spec["high"])
        if kind == "exponential":
            return exponential(spec["rate"])
        if kind == "truncated_normal":
            return truncated_normal(spec["mu"], spec["sigma"], spec.get("low", 0.0))
        if kind == "piecewise":
            return piecewise((s["from"], s["to"], s["density"]) for s in spec["segments"])
        if kind == "mixture":
            return mixture((p["weight"], from_spec(p["dist"])) for p in spec["parts"])
        if kind == "atom":
            return point_mass(spec["at"])
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


@dataclass(frozen=True)
class IronedVirtualCost:
    """Ironed virtual cost: follows the raw virtual cost outside flats.

    Attributes:
        grid: ascending evaluation grid over the (effective) support.
        values: ironed virtual cost at the grid points.
        flats: ``(lo, hi, level)`` intervals where the lower convex hull of
            the points ``(G(c), c G(c))`` skips grid points; ``level`` is
            the hull edge's slope, the dG-weighted mean of the virtual cost
            over the flat.
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

        Inside a flat this is the flat's level. A point inside a flat is
        moved to the flat's lower end (a hull vertex) before the raw virtual
        cost is evaluated, so it is never evaluated in a zero-density gap,
        which always lies inside a flat.
        """
        scalar = np.isscalar(c) or np.asarray(c).ndim == 0
        xa = np.clip(np.atleast_1d(np.asarray(c, dtype=float)), self.c_low, self.c_high)
        inside = [((xa > lo) & (xa < hi), lo, lev) for lo, hi, lev in self.flats]
        safe = xa
        for mask, lo, _ in inside:
            safe = np.where(mask, lo, safe)
        out = np.atleast_1d(np.asarray(self.dist.virtual_cost(safe), dtype=float))
        for mask, _, lev in inside:
            out[mask] = lev
        return float(out[0]) if scalar else out

    def inverse(self, q: float | np.ndarray) -> np.ndarray | float:
        """Largest cost whose ironed virtual cost does not exceed ``q``, for
        a level or an array of levels; a NaN level raises ``ValueError``.

        The distinct levels are solved by one bisection, pricing one
        predicted path per level and ``value`` call; a level's bits do not
        depend on the levels it is solved with."""
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        if np.isnan(qa).any():
            raise ValueError("cannot invert the ironed virtual cost at level nan")
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

    Each pass prices a predicted path per open bracket, in one ``f`` call
    unless it holds more than :data:`_CALL_POINTS` points: the midpoints
    ``0.5 * (lo + hi)`` that bisecting toward a predicted root visits. The
    rounds whose comparisons match the prediction are kept, and the first
    one that does not, so the rounds and their bits are bisection's own
    whether or not ``f`` is monotone. The first prediction is a secant in
    the cell of ``table`` (points, ascending values) that brackets the level,
    later ones a secant on the kept bracket's evaluated ends; a point of
    ``aims`` in that cell or bracket is aimed at instead, and a prediction
    outside the bracket aims at its midpoint.
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
        flat = mids.ravel()
        vals = np.concatenate([f(flat[k:k + _CALL_POINTS]) for k in range(0, flat.size, _CALL_POINTS)])
        vals = vals.reshape(mids.shape)
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
    the last), the first round even on a closed bracket. Up to 22 brackets
    (where the two cost about the same) are walked in floats, more in arrays."""
    if len(l) > 22:
        mids, last, still = np.empty((depth, len(l))), np.zeros(len(l), dtype=int), True
        # each width halves, less at most 2**-52 * max(|l|, |h|) in all: a bracket this wide cannot close
        track = ((h - l) * 0.5**depth <= 2e-15 * np.maximum(1.0, np.maximum(np.abs(l), np.abs(h)))).any()
        for d in range(depth):
            mids[d] = m = 0.5 * (l + h)
            go = m <= aim
            l, h = np.where(go, m, l), np.where(go, h, m)
            if track:
                still = still & (h - l > 1e-15 * np.maximum(1.0, np.abs(h)))
                last += still
                if not still.any():
                    break
        return mids[:d + 1], np.minimum(last, d) if track else np.full(len(l), depth - 1)
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
    """Indices of the lower convex hull vertices via a monotone chain. Runs
    of strict left turns on the stack top, found in one array pass, are
    pushed in bulk; the interpreter visits only the points where it can pop."""
    turn = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
    stops = [*(np.flatnonzero(turn <= 0) + 2).tolist(), len(x)]
    x, y = memoryview(x), memoryview(y)  # each read is a Python float; no list of every point
    hull: list[int] = []
    i = k = 0
    while i < len(x):
        while stops[k] < i:
            k += 1
        if len(hull) >= 2 and hull[-2] == i - 2 and i < stops[k]:
            hull.extend(range(i, stops[k]))
            i = stops[k]
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
        i += 1
    return hull


def iron(dist: TypeDistribution) -> IronedVirtualCost:
    """Iron the virtual cost in quantile space (Myerson 1981).

    For an atom-free G the integrated virtual cost is exact without
    quadrature: ``∫_{c_low}^c φ dG = c G(c)``. On a uniform grid over the
    range that carries mass, refined with the density kinks, the ironed
    virtual cost is the slope of the lower convex hull of the points
    ``(G(c_i), c_i G(c_i))``, whose chain the interpreter visits only where
    it can pop. A hull edge that skips grid points is a flat at the edge's
    slope (all flats are built in one array pass); at the hull's vertices
    the raw virtual cost is kept. A zero-density gap is a single quantile,
    which the hull bridges with a flat. When the chord slopes already
    increase, the virtual cost is non-decreasing and is followed pointwise.
    """
    if dist.has_atoms:
        raise AtomPresentError("ironing requires an atom-free distribution")
    lo, hi = dist.c_low, dist.effective_high()
    ends = np.asarray([lo, *(k for k in dist.kinks() if lo < k < hi), hi])
    # drop zero-density stretches at the ends: the grid runs from the last
    # kink with G = 0 to the first with G = G(hi)
    G_ends = np.asarray(dist.cdf(ends), dtype=float)
    ends = ends[np.flatnonzero(G_ends > G_ends[0])[0] - 1 : np.flatnonzero(G_ends < G_ends[-1])[-1] + 2]
    grid = np.unique(np.concatenate([np.linspace(ends[0], ends[-1], IRON_GRID), ends[1:-1]]))
    G = np.asarray(dist.cdf(grid), dtype=float)
    cG = grid * G

    dG = np.diff(G)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.diff(cG) / dG
    tol = 1e-10 * np.maximum(1.0, np.abs(chord[:-1]))
    # a zero-density stretch (dG = 0) always needs the hull to bridge it
    if np.all(dG > 0) and np.all(np.diff(chord) >= -tol):
        values = np.asarray(dist.virtual_cost(grid), dtype=float)
        return IronedVirtualCost(grid=grid, values=values, flats=(), dist=dist)

    hull = np.asarray(_lower_hull(G, cG))
    a, b = hull[:-1], hull[1:]
    flat = (b > a + 1) & (G[b] > G[a])
    a, b = a[flat], b[flat]
    flats = tuple(zip(grid[a].tolist(), grid[b].tolist(), ((cG[b] - cG[a]) / (G[b] - G[a])).tolist()))
    iv = IronedVirtualCost(grid=grid, values=grid, flats=flats, dist=dist)  # values set next
    return replace(iv, values=np.maximum.accumulate(iv.value(grid)))


@lru_cache(maxsize=64)
def ironed(dist: TypeDistribution) -> IronedVirtualCost:
    """Cached :func:`iron`; distributions are immutable so this is safe."""
    return iron(dist)
