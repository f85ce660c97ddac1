"""Payment rule for annotators and its audit quantities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _float_array, _positive
from .model import PrecisionPosterior, expected_precision

__all__ = ["PaymentScheme", "payment", "utility", "settle"]


@dataclass(frozen=True)
class PaymentScheme:
    """Per-example budget and the precision band that earns it.

    Precision at or below ``beta_lower`` pays nothing; precision at or above
    ``beta_upper`` pays the full budget; in between the payment is linear.
    """

    budget: float
    beta_lower: float
    beta_upper: float

    def __post_init__(self):
        for name in ("budget", "beta_lower", "beta_upper"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if not self.beta_lower < self.beta_upper:
            raise InvalidInputError(f"need beta_lower < beta_upper, "
                                    f"got [{self.beta_lower}, {self.beta_upper}]")


def payment(beta_hat, scheme: PaymentScheme):
    """Clamped linear payment; nondecreasing, bounded in [0, budget]."""
    b = _float_array(beta_hat, "beta_hat")
    if not np.logical_and.reduce(b >= 0, axis=None):
        raise InvalidInputError("estimated precision must be >= 0")
    # clamp before dividing: a huge estimate over a narrow band cannot overflow
    lo, hi = scheme.beta_lower, scheme.beta_upper
    clamped = np.minimum(np.maximum(b, lo), hi)
    out = scheme.budget * ((clamped - lo) / (hi - lo))
    return float(out) if np.isscalar(beta_hat) else out


def utility(beta, cost, scheme: PaymentScheme):
    """Annotator utility at a given effort: payment minus labeling cost."""
    return payment(beta, scheme) - cost(beta)


def settle(posterior: PrecisionPosterior, scheme: PaymentScheme) -> np.ndarray:
    """Per-example payment owed to each annotator given the learner's
    precision estimates.

    The learner pays on the posterior-mean precision; estimation noise can
    make this differ from the annotator's true effort, so experiment records
    report both sides rather than assuming they agree.
    """
    return payment(expected_precision(posterior), scheme)
