"""Simulated annotator population.

Annotators add zero-mean Gaussian noise at a chosen effort level (effort =
noise precision).  Strategic annotators pick the effort that maximizes
payment minus labeling cost; non-strategic ones always work at their best
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, _finite_array, _float_array, _integer,
                     _positive, _seed)
from .mechanism import PaymentScheme, utility

__all__ = [
    "CostFunction",
    "AnnotatorProfile",
    "make_annotators",
    "label_value",
    "optimal_effort",
]

# family -> (parameter count, cost of the efforts b under the params p)
_COST_FAMILIES = {
    "linear": (1, lambda p, b: p[0] * b),
    "quadratic": (1, lambda p, b: p[0] * b**2),
    "threshold": (3, lambda p, b:
                  p[0] * b + p[1] * np.maximum(0.0, b - p[2]) ** 2),
}
_EFFORT_GRID = 1000  # uniform grid points that optimal_effort searches


@dataclass(frozen=True)
class CostFunction:
    """Labeling cost as a function of effort.

    Families (all strictly increasing on [0, inf) with zero cost at zero):

    * ``linear``     a * beta                      params: (a,)
    * ``quadratic``  a * beta^2                    params: (a,)
    * ``threshold``  a * beta + b * max(0, beta - knee)^2    params: (a, b, knee)
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _COST_FAMILIES):
            raise InvalidInputError(
                f"kind must be one of {tuple(_COST_FAMILIES)}")
        params = tuple(_finite_array(self.params, "params", 1).tolist())
        expected = _COST_FAMILIES[self.kind][0]
        if len(params) != expected:
            raise InvalidInputError(f"{self.kind} cost takes {expected} "
                                    f"parameter(s), got {len(params)}")
        # a > 0 and b, knee >= 0 make the cost strictly increasing
        if not (params[0] > 0 and min(params) >= 0):
            raise InvalidInputError(f"params need a > 0 and b, knee >= 0, "
                                    f"got {params}")
        object.__setattr__(self, "params", params)

    def __call__(self, effort):
        b = _float_array(effort, "effort")
        if not np.all(b >= 0):
            raise InvalidInputError("effort must be >= 0")
        out = _COST_FAMILIES[self.kind][1](self.params, b)
        return float(out) if np.isscalar(effort) else out


@dataclass(frozen=True)
class AnnotatorProfile:
    """Simulator-side ground truth for one annotator.

    ``best_precision`` is the inverse noise variance at full effort.  An
    annotator with a ``cost`` is strategic: :func:`optimal_effort` picks its
    effort.
    """

    best_precision: float
    cost: CostFunction | None = None

    def __post_init__(self):
        _positive(self.best_precision, "best_precision")
        if not (self.cost is None or isinstance(self.cost, CostFunction)):
            raise InvalidInputError(
                f"cost must be None or a CostFunction, got {self.cost!r}")


def make_annotators(m, good, interval_good, interval_bad, seed):
    """Draw a population of ``m`` annotators, deterministic given the seed.

    Noise standard deviations (1/sqrt(best precision)) are uniform on
    ``interval_good`` for the first ``good`` annotators and on
    ``interval_bad`` for the rest.  Each interval needs finite bounds
    ``0 < lo <= hi``; degenerate ``[c, c]`` intervals pin the value exactly.
    """
    m = _integer(m, "m", 0)
    good = _integer(good, "good", 0, m)
    for name, (lo, hi) in (("interval_good", interval_good),
                           ("interval_bad", interval_bad)):
        if _positive(lo, name) > _positive(hi, name):
            raise InvalidInputError(f"{name} [{lo}, {hi}] needs lo <= hi")
    rng = np.random.default_rng(_seed(seed))
    sd = np.concatenate([
        rng.uniform(interval_good[0], interval_good[1], size=good),
        rng.uniform(interval_bad[0], interval_bad[1], size=m - good),
    ])
    return [AnnotatorProfile(1.0 / sd[j] ** 2) for j in range(m)]


def label_value(profile: AnnotatorProfile, true_value, effort: float, noise):
    """True value plus standard-normal ``noise`` scaled to variance 1/effort.

    ``true_value`` and ``noise`` may be scalars or equally shaped arrays (or
    lists), so one call labels many instances at one effort; a scalar on one
    side labels every entry of the other.  Effort cannot exceed the
    annotator's best precision.
    """
    if _positive(effort, "effort") > profile.best_precision:
        raise InvalidInputError(
            f"effort {effort} outside (0, {profile.best_precision}]"
        )
    true_value = _float_array(true_value, "true_value")
    noise = _float_array(noise, "noise")
    if true_value.ndim and noise.ndim and true_value.shape != noise.shape:
        raise InvalidInputError(f"noise has shape {noise.shape}, but "
                                f"true_value has shape {true_value.shape}")
    return true_value + noise * (1.0 / np.sqrt(effort))


def optimal_effort(profile: AnnotatorProfile,
                   scheme: PaymentScheme) -> tuple[float, bool]:
    """Effort a strategic annotator commits to under a payment scheme.

    Utility payment(effort) - cost(effort) is maximized over 1000 uniform
    grid points on [0, min(best precision, 1.5 * top payment band)].  The
    annotator participates only when the best utility is strictly positive;
    otherwise the returned effort is 0.  An annotator without a cost always
    works at best precision.
    """
    if profile.cost is None:
        return profile.best_precision, True
    top = min(profile.best_precision, 1.5 * scheme.beta_upper)
    candidates = np.linspace(0.0, top, _EFFORT_GRID)
    utilities = utility(candidates, profile.cost, scheme)
    best = int(np.argmax(utilities))
    if utilities[best] > 0:
        return float(candidates[best]), True
    return 0.0, False
