"""Simulated annotator population.

Annotators add zero-mean Gaussian noise at a chosen effort level (effort =
noise precision).  Strategic annotators pick the effort that maximizes
payment minus labeling cost; non-strategic ones always work at their best
precision.  An annotator's answers to a pool are drawn once, as a matrix of
seeded streams.
"""

from __future__ import annotations

import functools
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
    return _label(true_value, noise, effort)


def _label(truth, noise, effort, out=None):
    """The label model, ``truth + noise * (1 / sqrt(effort))``: standard
    normal ``noise`` scaled to variance 1/effort.  ``out``, if given, is the
    float array ``noise`` and takes the labels in place."""
    return np.add(truth, np.multiply(noise, 1.0 / np.sqrt(effort), out=out),
                  out=out)


def _answers(efforts, truth, seed):
    """The m x n answers of annotators at ``efforts`` on the true values
    ``truth``: row ``j`` is ``label_value``'s on the noise ``default_rng(seed
    + [j]).standard_normal(n)`` to the bit, for a list ``seed`` of integers
    >= 0.  The noise is drawn into the matrix, which becomes the labels."""
    efforts = np.asarray(efforts, dtype=float)[:, None]
    out = np.empty((efforts.shape[0], len(truth)))
    _draw_streams(out, [w for s in seed for w in _seed_words(s)])
    return _label(truth, out, efforts, out=out)


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


def _seed_words(value: int) -> list[int]:
    """The 32-bit words, least significant first, into which numpy's
    ``SeedSequence`` splits a seed integer >= 0 (``[0]`` for 0)."""
    value = int(value)  # a numpy integer has no bit_length
    return [value >> s & 0xFFFFFFFF
            for s in range(0, max(value.bit_length(), 1), 32)]


# numpy's SeedSequence hashes a seed's words into a pool of 4 words with
# these constants, and PCG64 seeds its 128-bit LCG from the first four
# 64-bit words the pool generates.  NEP 19 keeps both recipes fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# row s: the other pool words, which pool word s is mixed into
_OTHERS = np.array([[d for d in range(4) if d != s] for s in range(4)])


@functools.lru_cache(maxsize=8)
def _hash_constants(init, mult, n):
    """SeedSequence's first ``n`` hash constants, ``init * mult**i`` mod
    2**32, as a read-only (n, 1) uint32 column."""
    column = np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF
                       for i in range(n)], np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value, constants):
    """SeedSequence's ``hashmix`` of ``value`` under each of the consecutive
    hash ``constants`` but the last, one row per constant."""
    value = value ^ constants[:-1]
    value *= constants[1:]
    value ^= value >> _XSHIFT
    return value


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 arrays; overwrites both."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> _XSHIFT
    return x


def _stream_states(head, count) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``default_rng(head + [key]).bit_generator`` for
    each one-word key in ``range(count)``, where ``head`` holds 32-bit seed
    words (``_seed_words``).  SeedSequence's hash runs on every key at once,
    one column each, in uint32 arrays with only uint32 operands, so it wraps
    alike under numpy 1.x's casting and NEP 50; only PCG64's 128-bit seeding
    runs per key, on Python ints."""
    words = np.zeros((max(len(head) + 1, 4), count), np.uint32)
    words[:len(head)] = np.array(head, np.uint32)[:, None]
    words[len(head)] = np.arange(count)
    # 4 hashmixes fill the pool, 12 mix each word into the 3 others, and 4
    # mix each further word into the pool
    consts = _hash_constants(_INIT_A, _MULT_A, 17 + 4 * (len(words) - 4))
    pool = _hashmix(words[:4], consts[:5])
    for src, dst in enumerate(_OTHERS):
        k = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + 4]))
    for src in range(4, len(words)):
        k = 16 + 4 * (src - 4)
        pool = _mix(pool, _hashmix(words[src], consts[k:k + 5]))
    # generate_state hashes the pool twice over into 8 words, which numpy
    # pairs little-endian into initstate's high and low words, then
    # initseq's
    out = _hashmix(np.concatenate([pool, pool]),
                   _hash_constants(_INIT_B, _MULT_B, 9))
    states = []
    for s_hi, s_lo, q_hi, q_lo in (
            out.T.astype("<u4", order="C").view("<u8").tolist()):
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        initstate = s_hi << 64 | s_lo
        states.append((((inc + initstate) * _PCG64_MULT + inc) & _MASK128,
                       inc))
    return states


def _draw_streams(out, head) -> None:
    """Fill row ``j`` of the float matrix ``out`` with ``default_rng(head +
    [j]).standard_normal(out.shape[1])`` to the bit: one reused ``PCG64``
    takes each row's seeded state, and one ``Generator`` draws the row.
    ``numpy.random`` is reached only at call time."""
    bits = np.random.PCG64(0)  # seeded only to skip reading OS entropy
    draw = np.random.Generator(bits).standard_normal
    seeded = {}
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0,
             "uinteger": 0}
    for (lcg, inc), row in zip(_stream_states(head, len(out)), out):
        seeded["state"], seeded["inc"] = lcg, inc
        bits.state = state  # the setter copies the values it reads
        draw(out=row)
