"""Annotator selection as a heavy-tailed multi-armed bandit.

Rewards are negative squared label residuals.  Squaring Gaussian noise gives a
sub-exponential (heavy-tailed) reward, so the index uses a truncated empirical
mean: samples whose magnitude exceeds a round-dependent cutoff are left out of
the mean, which restores a usable upper confidence bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "BanditState",
    "RegretLedger",
    "truncation_threshold",
    "truncated_mean",
    "ucb_index",
    "select_annotator",
    "record_outcome",
    "initialize_state",
    "regret_seq",
    "regret_bound",
]


class BanditState:
    """Mutable per-run bandit state over ``m`` annotators.

    ``u`` bounds the second moment of the rewards (for residuals of a Gaussian
    with variance at most s^2, u = 3 s^4 works).  With a known play horizon
    the confidence parameter is fixed at horizon^-2; otherwise the anytime
    policy max(t, 2)^-2 is used.

    ``discarded`` counts the samples that were outside the cutoff in force
    when they arrived.  It never decreases: a sample that later re-enters the
    truncated mean as the cutoff grows stays counted, so it can exceed
    ``pulls - accepted_counts``.

    One experiment run owns one state; distinct runs are independent.
    """

    def __init__(self, num_annotators: int, u: float, horizon: int | None = None):
        if num_annotators < 1:
            raise InvalidInputError("need at least one annotator")
        if not u > 0:
            raise InvalidInputError("moment bound u must be positive")
        if horizon is not None and horizon < 2:
            raise InvalidInputError("horizon must be at least 2")
        self.num_annotators = num_annotators
        self.u = float(u)
        self.horizon = horizon
        self.pulls = np.zeros(num_annotators, dtype=int)
        self.accepted_counts = np.zeros(num_annotators, dtype=int)
        self.truncated_means = np.zeros(num_annotators)
        self.t = 0
        self.discarded = 0
        self._buffers = [np.empty(16) for _ in range(num_annotators)]

    def samples(self, j: int) -> np.ndarray:
        """Copy of annotator ``j``'s stored rewards (all <= 0)."""
        self._check_annotator(j)
        return self._buffers[j][: self.pulls[j]].copy()

    def log_inv_delta(self) -> float:
        """log(1/delta) under the configured confidence policy."""
        if self.horizon is not None:
            return 2.0 * math.log(self.horizon)
        return 2.0 * math.log(max(self.t, 2))

    def _check_annotator(self, j):
        if not 0 <= j < self.num_annotators:
            raise InvalidInputError(f"annotator index {j} out of range")

    def _append(self, j, value):
        buf = self._buffers[j]
        n = self.pulls[j]
        if n >= buf.shape[0]:
            grown = np.empty(2 * buf.shape[0])
            grown[:n] = buf[:n]
            self._buffers[j] = grown
            buf = grown
        buf[n] = value


def truncation_threshold(state: BanditState, delta: float | None = None) -> float:
    """Magnitude cutoff sqrt(u t / log(1/delta)) at the current round.

    ``delta`` overrides the state's confidence policy when given (useful for
    studying the estimator at a fixed confidence level).
    """
    if state.t < 1:
        raise InvalidInputError("threshold is defined only after the first round")
    if delta is None:
        log_inv = state.log_inv_delta()
    else:
        if not 0 < delta < 1:
            raise InvalidInputError("delta must lie in (0, 1)")
        log_inv = math.log(1.0 / delta)
    return math.sqrt(state.u * state.t / log_inv)


def truncated_mean(samples, threshold: float) -> tuple[float, int]:
    """Mean of the samples with magnitude at most ``threshold``.

    Returns the mean and the number of samples kept; with nothing kept the
    mean is defined as 0.
    """
    if not threshold > 0:
        raise InvalidInputError("threshold must be positive")
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        return 0.0, 0
    keep = np.abs(xs) <= threshold
    kept = int(keep.sum())
    if kept == 0:
        return 0.0, 0
    return float(xs[keep].sum() / kept), kept


def _ucb_values(state: BanditState) -> np.ndarray:
    values = np.full(state.num_annotators, np.inf)
    pulled = state.pulls > 0
    if np.any(pulled):
        log_t = max(math.log(state.t), 0.0)
        width = np.sqrt(32.0 * state.u * log_t / state.pulls[pulled])
        values[pulled] = state.truncated_means[pulled] + width
    return values


def ucb_index(state: BanditState, j: int) -> float:
    """Optimistic index: truncated mean plus sqrt(32 u log t / n_j).

    Unpulled annotators get +inf, which forces one exploration pull each.
    """
    state._check_annotator(j)
    return float(_ucb_values(state)[j])


def select_annotator(state: BanditState) -> int:
    """Annotator with the largest index; ties go to the lowest index."""
    return int(np.argmax(_ucb_values(state)))


def record_outcome(state: BanditState, j: int, residual_sq: float) -> bool:
    """Store one observed squared residual for annotator ``j`` (in place).

    Advances the round counter and re-filters all of ``j``'s stored rewards
    against the refreshed threshold, so previously rejected samples may
    re-enter the mean as the cutoff grows.  Returns whether the new sample is
    within that threshold (accepted); if not, it adds one to
    ``state.discarded``, which a later re-entry does not undo.
    """
    state._check_annotator(j)
    if not (np.isfinite(residual_sq) and residual_sq >= 0):
        raise InvalidInputError("residual_sq must be finite and >= 0")
    state._append(j, -float(residual_sq))
    state.pulls[j] += 1
    state.t += 1
    threshold = truncation_threshold(state)
    xs = state._buffers[j][: state.pulls[j]]
    mean, kept = truncated_mean(xs, threshold)
    state.truncated_means[j] = mean
    state.accepted_counts[j] = kept
    accepted = bool(residual_sq <= threshold)
    if not accepted:
        state.discarded += 1
    return accepted


def initialize_state(state: BanditState, residual_sqs) -> BanditState:
    """Prime a fresh state with pre-collected squared residuals.

    ``residual_sqs`` holds one sequence per annotator (for example residuals
    of an initial pool labeled by everyone).  All samples are loaded, the
    round counter jumps to the total count, and the truncated means are set in
    one filtering pass at the resulting threshold.  The whole batch arrives
    at that one cutoff, so the samples outside it are exactly the discarded
    ones in the sense of ``BanditState.discarded``.
    """
    if state.t != 0:
        raise InvalidInputError("state has already been played")
    if len(residual_sqs) != state.num_annotators:
        raise InvalidInputError("need one residual sequence per annotator")
    for j, seq in enumerate(residual_sqs):
        for value in seq:
            if not (np.isfinite(value) and value >= 0):
                raise InvalidInputError("residuals must be finite and >= 0")
            state._append(j, -float(value))
            state.pulls[j] += 1
        state.t += int(len(seq))
    if state.t == 0:
        return state
    threshold = truncation_threshold(state)
    for j in range(state.num_annotators):
        mean, kept = truncated_mean(state._buffers[j][: state.pulls[j]], threshold)
        state.truncated_means[j] = mean
        state.accepted_counts[j] = kept
    state.discarded = int((state.pulls - state.accepted_counts).sum())
    return state


@dataclass
class RegretLedger:
    """Ground-truth suboptimality gaps and realized pull counts.

    ``gaps[j]`` is the extra label variance annotator ``j`` carries over the
    best annotator; the realized regret is the gap-weighted pull count.
    """

    gaps: np.ndarray
    pulls: np.ndarray

    def __post_init__(self):
        gaps = np.asarray(self.gaps, dtype=float)
        if gaps.ndim != 1 or gaps.size < 1:
            raise InvalidInputError("gaps must be a non-empty vector")
        if np.any(gaps < 0) or not np.all(np.isfinite(gaps)):
            raise InvalidInputError("gaps must be finite and >= 0")
        self.gaps = gaps
        self.pulls = np.asarray(self.pulls, dtype=int).copy()
        if self.pulls.shape != gaps.shape:
            raise InvalidInputError("pulls must match gaps in length")

    @classmethod
    def from_precisions(cls, precisions) -> "RegretLedger":
        """Gaps 1/beta_j - 1/beta_best from true annotator precisions."""
        betas = np.asarray(precisions, dtype=float)
        if np.any(betas <= 0):
            raise InvalidInputError("precisions must be positive")
        variances = 1.0 / betas
        return cls(variances - variances.min(), np.zeros(betas.size, dtype=int))

    @classmethod
    def from_reward_means(cls, means) -> "RegretLedger":
        """Gaps best-mean - mean_j from true arm reward means."""
        mu = np.asarray(means, dtype=float)
        return cls(mu.max() - mu, np.zeros(mu.size, dtype=int))

    def record_pull(self, j: int) -> None:
        if not 0 <= j < self.gaps.size:
            raise InvalidInputError(f"annotator index {j} out of range")
        self.pulls[j] += 1


def regret_seq(ledger: RegretLedger) -> float:
    """Realized cumulative regret: sum of gap * pull count."""
    return float(ledger.gaps @ ledger.pulls)


def regret_bound(gaps, u: float, horizon: float) -> float:
    """Logarithmic regret ceiling: sum over positive gaps of
    32 u log(horizon) / gap + 5 gap."""
    if not horizon >= 2:
        raise InvalidInputError("horizon must be at least 2")
    if not u > 0:
        raise InvalidInputError("moment bound u must be positive")
    g = np.asarray(gaps, dtype=float)
    g = g[g > 0]
    if g.size == 0:
        return 0.0
    return float(np.sum(32.0 * u * math.log(horizon) / g + 5.0 * g))
