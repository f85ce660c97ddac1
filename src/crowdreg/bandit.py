"""Annotator selection as a heavy-tailed multi-armed bandit.

Rewards are negative squared label residuals.  Squaring Gaussian noise gives a
sub-exponential (heavy-tailed) reward, so the index uses a truncated empirical
mean: samples whose magnitude exceeds a round-dependent cutoff are left out of
the mean, which restores a usable upper confidence bound.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, _finite_array, _integer, _is_real,
                     _positive)

__all__ = [
    "BanditState",
    "RegretLedger",
    "truncated_mean",
    "select_annotator",
    "record_outcome",
    "initialize_state",
    "regret_seq",
    "regret_bound",
]


class BanditState:
    """Mutable per-run bandit state over ``m`` annotators.

    ``u`` bounds the second moment of the rewards (for residuals of a Gaussian
    with variance at most s^2, u = 3 s^4 works); it must be finite, > 0 and
    small enough that the width constant 32 u log(horizon) and the cutoff at
    round ``horizon`` are finite.
    ``horizon`` is the number of plays the run makes, an integer >= 2; the
    confidence parameter is fixed at horizon^-2, so log(1/delta) =
    2 log(horizon) is computed once and the cutoff sqrt(u t / log(1/delta))
    strictly increases with the round ``t``.

    Because the cutoff never falls, a sample that enters an arm's truncated
    mean never has to leave it.  Each arm therefore keeps only the sum of its
    admitted residuals and a min-heap of the residuals still waiting outside
    the cutoff; ``accepted_counts`` and ``truncated_means`` follow from them.

    ``discarded`` counts the samples that were outside the cutoff in force
    when they arrived.  It never decreases: a sample that later re-enters the
    truncated mean as the cutoff grows stays counted, so it can exceed
    ``pulls - accepted_counts``.

    One experiment run owns one state; distinct runs are independent.
    """

    def __init__(self, num_annotators: int, u: float, horizon: int):
        num_annotators = _integer(num_annotators, "num_annotators", 1)
        self.u, self.horizon = _checked_bounds(u, horizon)
        self.num_annotators = num_annotators
        self.pulls = np.zeros(num_annotators, dtype=int)
        self.accepted_counts = np.zeros(num_annotators, dtype=int)
        self.truncated_means = np.zeros(num_annotators)
        self.t = 0
        self.discarded = 0
        self._log_inv_delta = 2.0 * math.log(self.horizon)
        self._kept_sums = [0.0] * num_annotators
        self._waiting = [[] for _ in range(num_annotators)]


def _checked_bounds(u, horizon) -> tuple[float, int]:
    """``(u, horizon)`` after the checks that :class:`BanditState` lists."""
    u_checked, h = _positive(u, "u"), _integer(horizon, "horizon", 2)
    if not math.isfinite(32.0 * u_checked * math.log(h)):
        raise InvalidInputError(
            f"u={u!r} is too large for horizon={horizon!r}: the UCB "
            f"width 32 u log(horizon) overflows")
    if not (h <= sys.float_info.max and math.isfinite(u_checked * h)):
        raise InvalidInputError(
            f"u={u!r} is too large for horizon={horizon!r}: the "
            f"truncation cutoff sqrt(u t / 2 log horizon) overflows "
            f"by t = horizon")
    return u_checked, h


def _cutoff(state: BanditState, t: int) -> float:
    """The magnitude cutoff sqrt(u t / (2 log horizon)) at round ``t``; it
    can overflow only past the horizon, and then fails instead of admitting
    every sample."""
    threshold = math.sqrt(state.u * t / state._log_inv_delta)
    if threshold == math.inf:
        raise InvalidInputError(
            f"the truncation cutoff overflows at round t={t}, past "
            f"horizon={state.horizon} for u={state.u!r}")
    return threshold


def truncated_mean(samples, threshold: float) -> tuple[float, int]:
    """Mean of the samples with magnitude at most ``threshold``.

    Returns the mean and the number of samples kept; with nothing kept the
    mean is defined as 0.  This is the reference estimator; the bandit state
    keeps the same mean incrementally.
    """
    threshold = _positive(threshold, "threshold")
    xs = _finite_array(samples, "samples", 1)
    if xs.size == 0:
        return 0.0, 0
    keep = np.abs(xs) <= threshold
    kept = int(keep.sum())
    if kept == 0:
        return 0.0, 0
    return float(xs[keep].sum() / kept), kept


def _arm_values(state: BanditState) -> list[float]:
    """Every arm's index: truncated mean plus sqrt(32 u log t / n_j).  An
    unpulled arm gets +inf, which forces one exploration pull each.

    The index is computed arm by arm in Python, ``math.sqrt(c / n) + mean``:
    on a small crowd numpy's per-call cost outweighs its work, and on a
    crowd of 50, where one array pass is faster, the bandit is about 2% of
    an active-learning round.  c / n_j, then the square root, then + mean,
    in that order, fix the bits of every index and so of every pull; the
    count converts to a float exactly, and Python's operations are the same
    correctly rounded ones as numpy's."""
    counts = state.pulls.tolist()
    t = state.t
    if t < 1:
        if max(counts) > 0:
            raise InvalidInputError(
                f"round counter t={t} is below 1 but an arm has been pulled")
        t = 1  # log 1 = 0; no arm is pulled, so the width is never read
    c = 32.0 * state.u * math.log(t)
    values = []  # before Python 3.12 a comprehension costs a frame of its own
    for n, mean in zip(counts, state.truncated_means.tolist()):
        values.append(math.sqrt(c / n) + mean if n else math.inf)
    return values


def select_annotator(state: BanditState) -> int:
    """Annotator with the largest index of :func:`_arm_values`; the first
    maximum wins, so ties go to the lowest index."""
    values = _arm_values(state)
    return values.index(max(values))


def _admit(state: BanditState, j: int, residual_sqs, threshold: float) -> None:
    """Queue validated squared residuals for arm ``j`` at ``threshold``.

    Arrivals outside the threshold count as discarded.  Every waiting
    residual within it then moves into the kept sum, smallest first; the
    cost is O(log w) per move in the w residuals still waiting.
    """
    waiting = state._waiting[j]
    for residual_sq in residual_sqs:
        state.discarded += residual_sq > threshold
        heapq.heappush(waiting, residual_sq)
    state.pulls[j] += len(residual_sqs)
    kept, total = int(state.accepted_counts[j]), state._kept_sums[j]
    while waiting and waiting[0] <= threshold:
        total += heapq.heappop(waiting)
        kept += 1
    state._kept_sums[j] = total
    state.accepted_counts[j] = kept
    state.truncated_means[j] = -total / kept if kept else 0.0


def record_outcome(state: BanditState, j: int, residual_sq: float) -> bool:
    """Store one observed squared residual for annotator ``j`` (in place).

    Advances the round counter and admits into ``j``'s truncated mean every
    waiting residual of ``j`` within the refreshed cutoff, so a sample
    rejected earlier re-enters once the cutoff has grown past it.  Returns
    whether the new sample is within that cutoff (accepted); if not, it adds
    one to ``state.discarded``, which a later re-entry does not undo.
    Past the horizon the new cutoff can overflow; the call then fails and
    leaves the state untouched.

    A sample within the cutoff, for an arm with nothing waiting, is added
    straight to the kept sum: pushing it on the empty heap and popping it
    again would add the same one number.  Any other sample takes the heap.
    """
    if type(j) is not int or not 0 <= j < state.num_annotators:
        j = _integer(j, "annotator index", 0, state.num_annotators - 1)
    try:
        residual_sq = float(residual_sq)
    except (TypeError, ValueError):
        residual_sq = math.nan
    if not (math.isfinite(residual_sq) and residual_sq >= 0):
        raise InvalidInputError("residual_sq must be finite and >= 0")
    threshold = _cutoff(state, state.t + 1)
    state.t += 1
    if state._waiting[j] or residual_sq > threshold:
        _admit(state, j, (residual_sq,), threshold)
        return residual_sq <= threshold
    state.pulls[j] += 1
    kept = int(state.accepted_counts[j]) + 1
    total = state._kept_sums[j] + residual_sq
    state._kept_sums[j] = total
    state.accepted_counts[j] = kept
    state.truncated_means[j] = -total / kept
    return True


def initialize_state(state: BanditState, residual_sqs) -> BanditState:
    """Prime a fresh state with pre-collected squared residuals.

    ``residual_sqs`` holds one sequence per annotator (for example residuals
    of an initial pool labeled by everyone).  The whole batch, and the
    cutoff of the round it reaches, are checked before the state changes, so
    a rejected call leaves it untouched.  The
    round counter then jumps to the total count and every sample arrives at
    the one cutoff of that round: those outside it wait, and are exactly the
    discarded ones in the sense of ``BanditState.discarded``.
    """
    if state.t != 0:
        raise InvalidInputError("state has already been played")
    try:
        batch = [[float(value) for value in seq] for seq in residual_sqs]
    except (TypeError, ValueError):
        raise InvalidInputError(
            "residual_sqs must hold sequences of numbers") from None
    if len(batch) != state.num_annotators:
        raise InvalidInputError(
            "residual_sqs must hold one sequence per annotator")
    if not all(math.isfinite(value) and value >= 0
               for seq in batch for value in seq):
        raise InvalidInputError("residual_sqs must be finite and >= 0")
    t = sum(map(len, batch))
    if t == 0:
        return state
    threshold = _cutoff(state, t)
    state.t = t
    for j, seq in enumerate(batch):
        _admit(state, j, seq, threshold)
    return state


@dataclass(eq=False)
class RegretLedger:
    """Ground-truth suboptimality gaps and realized pull counts.

    ``gaps[j]`` is the extra label variance annotator ``j`` carries over the
    best annotator; the realized regret is the gap-weighted pull count.
    """

    gaps: np.ndarray
    pulls: np.ndarray

    def __post_init__(self):
        gaps = _finite_array(self.gaps, "gaps", 1)
        if gaps.size < 1 or np.any(gaps < 0):
            raise InvalidInputError("gaps must be non-empty and >= 0")
        self.gaps = gaps
        try:
            pulls = np.asarray(self.pulls)
        except (TypeError, ValueError):
            pulls = None
        if (pulls is None or pulls.dtype.kind not in "iu"
                or pulls.shape != gaps.shape or np.any(pulls < 0)):
            raise InvalidInputError(
                f"pulls must be {gaps.size} integer counts >= 0, one per "
                f"gap, got {self.pulls!r}")
        self.pulls = pulls.astype(int)

    @classmethod
    def from_precisions(cls, precisions) -> "RegretLedger":
        """Gaps 1/beta_j - 1/beta_best from true annotator precisions."""
        betas = _finite_array(precisions, "precisions", 1)
        if betas.size < 1 or np.any(betas <= 0):
            raise InvalidInputError("precisions must be non-empty and > 0")
        variances = 1.0 / betas
        return cls(variances - variances.min(), np.zeros(betas.size, dtype=int))

    def record_pull(self, j: int) -> None:
        if type(j) is not int or not 0 <= j < self.gaps.size:
            j = _integer(j, "annotator index", 0, self.gaps.size - 1)
        self.pulls[j] += 1


def regret_seq(ledger: RegretLedger) -> float:
    """Realized cumulative regret: sum of gap * pull count."""
    return float(ledger.gaps @ ledger.pulls)


def regret_bound(gaps, u: float, horizon: float) -> float:
    """Logarithmic regret ceiling: sum over positive gaps of
    32 u log(horizon) / gap + 5 gap."""
    if not (_is_real(horizon) and 2 <= horizon < math.inf):
        raise InvalidInputError(
            f"horizon must be a finite number >= 2, got {horizon!r}")
    u = _positive(u, "u")
    g = _finite_array(gaps, "gaps", 1)
    g = g[g > 0]
    if g.size == 0:
        return 0.0
    return float(np.sum(32.0 * u * math.log(horizon) / g + 5.0 * g))
