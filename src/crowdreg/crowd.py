"""Simulated annotator population.

Annotators add zero-mean Gaussian noise at a chosen effort level (effort =
noise precision).  Strategic annotators pick the effort that maximizes
payment minus labeling cost; non-strategic ones always work at their best
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _finite_array, _integer, _positive
from .mechanism import PaymentScheme, utility

__all__ = [
    "CostFunction",
    "AnnotatorProfile",
    "make_annotators",
    "label_value",
    "optimal_effort",
]

_COST_FAMILIES = ("linear", "quadratic", "threshold")


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
        if self.kind not in _COST_FAMILIES:
            raise InvalidInputError(f"kind must be one of {_COST_FAMILIES}")
        params = tuple(_finite_array(self.params, "params", 1).tolist())
        expected = 3 if self.kind == "threshold" else 1
        if len(params) != expected:
            raise InvalidInputError(f"{self.kind} cost takes {expected} "
                                    f"parameter(s), got {len(params)}")
        # a > 0 and b, knee >= 0 make the cost strictly increasing
        if not (params[0] > 0 and min(params) >= 0):
            raise InvalidInputError(f"params need a > 0 and b, knee >= 0, "
                                    f"got {params}")
        object.__setattr__(self, "params", params)

    def __call__(self, beta):
        b = np.asarray(beta, dtype=float)
        if not np.all(b >= 0):
            raise InvalidInputError("effort must be >= 0")
        if self.kind == "linear":
            out = self.params[0] * b
        elif self.kind == "quadratic":
            out = self.params[0] * b**2
        else:
            a, slope, knee = self.params
            out = a * b + slope * np.maximum(0.0, b - knee) ** 2
        return float(out) if np.isscalar(beta) else out


@dataclass(frozen=True)
class AnnotatorProfile:
    """Simulator-side ground truth for one annotator.

    ``best_precision`` is the inverse noise variance at full effort; the cost
    function only matters for strategic annotators.
    """

    id: int
    best_precision: float
    cost: CostFunction | None = None
    strategic: bool = False

    def __post_init__(self):
        _integer(self.id, "id", 0)
        _positive(self.best_precision, "best_precision")


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
    rng = np.random.default_rng(seed)
    sd = np.concatenate([
        rng.uniform(interval_good[0], interval_good[1], size=good),
        rng.uniform(interval_bad[0], interval_bad[1], size=m - good),
    ])
    return [AnnotatorProfile(id=j, best_precision=1.0 / sd[j] ** 2)
            for j in range(m)]


def label_value(profile: AnnotatorProfile, true_value, effort: float, noise):
    """True value plus standard-normal ``noise`` scaled to variance 1/effort.

    ``true_value`` and ``noise`` may be scalars or equally shaped arrays, so
    one call labels many instances at one effort.  Effort cannot exceed the
    annotator's best precision.
    """
    if _positive(effort, "effort") > profile.best_precision:
        raise InvalidInputError(
            f"effort {effort} outside (0, {profile.best_precision}]"
        )
    return true_value + noise * (1.0 / np.sqrt(effort))


def optimal_effort(profile: AnnotatorProfile, scheme: PaymentScheme,
                   grid: int = 1000) -> tuple[float, bool]:
    """Effort a strategic annotator commits to under a payment scheme.

    Utility payment(effort) - cost(effort) is maximized over a uniform grid
    on [0, min(best precision, 1.5 * top payment band)].  The annotator
    participates only when the best utility is strictly positive; otherwise
    the returned effort is 0.  Non-strategic annotators always work at best
    precision.
    """
    grid = _integer(grid, "grid", 2)
    if not profile.strategic:
        return profile.best_precision, True
    if profile.cost is None:
        raise InvalidInputError("strategic annotator needs a cost function")
    top = min(profile.best_precision, 1.5 * scheme.beta_upper)
    candidates = np.linspace(0.0, top, grid)
    utilities = utility(candidates, profile.cost, scheme)
    best = int(np.argmax(utilities))
    if utilities[best] > 0:
        return float(candidates[best]), True
    return 0.0, False
