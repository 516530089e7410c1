"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain
``agency`` objects, so the program only ever sees generated inputs. The
shape of each pair (action count, distribution family) comes from a fixed
cycle of strata; the seed draws every number inside a stratum. Runs with
different seeds therefore do the same mix of work on different numbers,
which keeps the timing spread between seeds small.

The regular family here deliberately differs from the test suite's
battery, whose piecewise densities always decrease: the non-regular
generators below produce increasing steps and overlapping or gapped
two-bump mixtures, which are the inputs that reach the ironing flats.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from agency import (
    Instance,
    envelope_rule,
    exponential,
    mixture,
    piecewise,
    smoothed_point_mass,
    truncated_normal,
    uniform,
    validate,
)

#: Distribution families of the theorem battery, in stratum order.
REGULAR_FAMILIES = ("uniform", "exponential", "truncated_normal", "piecewise_down", "smoothed")

#: Distribution families of the non-regular workload. Two pairs in three
#: have increasing steps, so the median operation sits inside that family
#: rather than between the two; one pair in twelve is a two-bump mixture
#: with a zero-density gap (under a tenth of all pairs).
NONREGULAR_FAMILIES = ("piecewise_up", "bumps", "piecewise_up") * 3 + ("piecewise_up", "gapped_bumps", "piecewise_up")


def random_instance(rng: np.random.Generator, n: int, m: int) -> Instance:
    """Valid instance with ``n`` non-null actions and ``m`` non-null outcomes.

    Rewards increase; the top outcome's probability rises with the action,
    the rest spreads evenly, and efforts increase. Resamples until the
    instance validates and every action is welfare-optimal for some cost:
    then every instance of a size has the same number of envelope pieces,
    and operations on instances of one size cost about the same.
    """
    while True:
        rewards = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 8.0, m - 1)), [rng.uniform(9.0, 20.0)]])
        p = np.sort(rng.uniform(0.05, 0.95, n))
        rows = [np.concatenate([[1.0], np.zeros(m)])]
        rows += [np.concatenate([[0.0], np.full(m - 1, (1.0 - pi) / (m - 1)), [pi]]) for pi in p]
        gammas = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, n))])
        inst = Instance(
            gammas=tuple(gammas),
            rewards=tuple(rewards),
            outcome_probs=tuple(tuple(r) for r in rows),
        )
        if validate(inst) or np.any(np.diff(inst.expected_reward_array()) <= 1e-6):
            continue
        if len(envelope_rule(inst, 1.0, (0.0, welfare_top(inst))).actions) == n:
            return inst


def binary_action_instance(rng: np.random.Generator) -> Instance:
    """Two-action instance meeting the binary-action construction's
    preconditions: outcome 2 is the likelihood-ratio outcome of action 2,
    outcome 1 that of action 1, and ``gamma2 * q12 <= gamma1 * q2``."""
    while True:
        a = float(rng.uniform(0.15, 0.45))
        b = float(rng.uniform(a + 0.15, 0.95))
        r1 = float(rng.uniform(0.5, 4.0))
        r2 = float(rng.uniform(r1 + 1.0, r1 + 8.0))
        g1 = float(rng.uniform(0.3, 1.2))
        g2 = float(rng.uniform(1.05 * g1, min(g1 * b / a, 3.0 * g1)))
        if g1 * b / a <= 1.05 * g1:
            continue
        inst = Instance(
            gammas=(0.0, g1, g2),
            rewards=(0.0, r1, r2),
            outcome_probs=((1.0, 0.0, 0.0), (0.0, 1.0 - a, a), (0.0, 1.0 - b, b)),
        )
        if not validate(inst):
            return inst


def welfare_top(inst: Instance) -> float:
    """Largest cost at which some action still beats opting out."""
    R = inst.expected_reward_array()
    g = inst.gamma_array()
    return float(max(R[i] / g[i] for i in range(1, inst.n + 1)))


def _three_steps(hi: float, cuts: np.ndarray, heights: np.ndarray):
    """Density on ``[0, hi]`` with steps at ``cuts`` (shares of ``hi``) and
    levels proportional to ``heights``."""
    bounds = np.concatenate([[0.0], np.sort(cuts) * hi, [hi]])
    dens = heights / float(np.dot(heights, np.diff(bounds)))
    return piecewise(zip(bounds[:-1], bounds[1:], dens))


def regular_distribution(rng: np.random.Generator, inst: Instance, family: str):
    """Regular (monotone virtual cost) distribution scaled to the instance.

    Supports reach past the welfare top so every guarantee's hypotheses
    are live; truncated normals keep ``sigma >= 2 mu`` and piecewise steps
    decrease, which keeps the virtual cost increasing.
    """
    z = welfare_top(inst)
    if family == "uniform":
        return uniform(0.0, float(rng.uniform(1.2, 1.8)) * z)
    if family == "exponential":
        return exponential(float(rng.uniform(6.0, 10.0)) / z)
    if family == "truncated_normal":
        mu = float(rng.uniform(0.1, 0.3)) * z
        return truncated_normal(mu, float(rng.uniform(2.0, 3.0)) * mu, 0.0)
    if family == "piecewise_down":
        hi = float(rng.uniform(1.2, 1.6)) * z
        return _three_steps(hi, rng.uniform(0.15, 0.85, 2), np.sort(rng.uniform(0.2, 1.0, 3))[::-1])
    if family == "smoothed":
        return smoothed_point_mass(float(rng.uniform(0.05, 0.6)))
    raise ValueError(f"unknown regular family {family!r}")


def nonregular_distribution(rng: np.random.Generator, inst: Instance, family: str):
    """Distribution whose virtual cost decreases somewhere.

    ``piecewise_up``: three steps of increasing density. ``bumps``: two
    overlapping uniforms, so the density steps up where they overlap.
    ``gapped_bumps``: two disjoint uniforms with a zero-density gap.
    """
    z = welfare_top(inst)
    hi = float(rng.uniform(1.2, 1.6)) * z
    if family == "piecewise_up":
        return _three_steps(hi, rng.uniform(0.1, 0.9, 2), np.sort(rng.uniform(0.1, 1.0, 3)) * [1.0, 2.0, 3.0])
    a_hi = float(rng.uniform(0.35, 0.6)) * hi
    w = float(rng.uniform(0.2, 0.5))
    if family == "bumps":
        b_lo = float(rng.uniform(0.4, 0.9)) * a_hi
        return mixture([(w, uniform(0.0, a_hi)), (1.0 - w, uniform(b_lo, hi))])
    if family == "gapped_bumps":
        b_lo = a_hi + float(rng.uniform(0.05, 0.2)) * (hi - a_hi)
        return mixture([(w, uniform(0.0, a_hi)), (1.0 - w, uniform(b_lo, hi))])
    raise ValueError(f"unknown non-regular family {family!r}")


def strata(families: tuple[str, ...], sizes: tuple[tuple[int, int], ...]):
    """Endless cycle of (family, n, m) strata.

    The family cycle and the size cycle have coprime lengths, so every
    family meets every size once per ``len(families) * len(sizes)`` pairs.
    """
    fam = itertools.cycle(families)
    size = itertools.cycle(sizes)
    while True:
        n, m = next(size)
        yield next(fam), n, m


#: Stratum cycles per workload: families, (actions, outcomes) sizes, and
#: the distribution builder.
KINDS = {
    "regular": (REGULAR_FAMILIES, ((2, 2), (3, 3), (4, 2), (5, 4), (3, 4), (4, 3)), regular_distribution),
    "nonregular": (NONREGULAR_FAMILIES, ((2, 2), (3, 3), (2, 4), (3, 2), (2, 3)), nonregular_distribution),
}


class Pair(NamedTuple):
    family: str
    instance: Instance
    dist: object
    alpha: float  # share probed by the closed-form/quadrature cross-check


def pairs(seed: int, kind: str, stream: int = 0, repeat: int = 1):
    """Endless stream of generated pairs for a workload.

    ``stream`` separates independent input streams of one seed (warm-up
    inputs never reappear among the timed ones); ``repeat`` draws that many
    pairs from each stratum before moving on.
    """
    families, sizes, make = KINDS[kind]
    rng = np.random.default_rng([seed, stream])
    for family, n, m in strata(families, sizes):
        for _ in range(repeat):
            inst = random_instance(rng, n, m)
            dist = make(rng, inst, family)
            yield Pair(family, inst, dist, float(rng.uniform(0.1, 0.9)))


def cycle_length(kind: str) -> int:
    families, sizes, _ = KINDS[kind]
    return len(families) * len(sizes)
