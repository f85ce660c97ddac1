"""Experiment orchestration: data ingestion, the active-learning protocol,
baseline strategies, metrics, and record emission.

A run splits the data (seeded), normalizes and transforms features, simulates
an annotator population and its noisy answers on the pool, labels a small seed
pool with every annotator, fits the variational model, then procures one label
per round: pick an instance, pick an annotator (per strategy), take that
annotator's answer, refit with a warm start, and update the bandit and regret
accounting.  Every round appends one record.

Repetitions are independent given the base seed; reruns with the same
configuration produce byte-identical record files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from array import array
from dataclasses import dataclass, fields

import numpy as np

from . import bandit as bd
from .crowd import AnnotatorProfile, _answers, make_annotators
from .errors import (DataFormatError, InvalidInputError, _integer, _is_int,
                     _is_real, _seed)
from .features import (TransformSpec, apply_normalization, fit_centers,
                       normalize, transform)
from .mechanism import PaymentScheme, payment, settle
from .model import (CrowdDataset, PrecisionPosterior, WeightPosterior,
                    default_precision_priors, default_weight_prior,
                    fit_variational)
from .active import select_instance

__all__ = [
    "ExperimentConfig",
    "RoundRecord",
    "load_csv",
    "rmse",
    "run_experiment",
    "full_fit",
    "emit_records",
    "summarize",
    "synthetic_housing_like",
]

# Strategy -> (instance rule, annotator rule); the first is the default.
# Instance rules: "variance" or "uniform" (a uniform random draw).  Annotator
# rules: "ucb" (robust UCB bandit), "uniform" or "source" (a uniform draw over
# a population of one near-noiseless annotator, which _setup builds).
_RULES = {
    "robust_ucb": ("variance", "ucb"),
    "random": ("uniform", "uniform"),
    "instance_only": ("variance", "uniform"),
    "single_source": ("variance", "source"),
}
STRATEGIES = tuple(_RULES)

# Sub-stream tags so that split, k-means, annotator draws, strategy
# randomness and label noise never share a generator.
_SPLIT, _KMEANS, _ANNOT, _STRATEGY, _LABEL, _SGRID = range(6)

_SINGLE_SOURCE_SD = 0.01

# Sweep cap and stop of each warm-started per-round refit; the seed-pool
# and scale-search fits run at fit_variational's defaults (200, 1e-6).  The
# records print 9 significant digits and every pick is a comparison: a stop
# at a relative rate change of 5e-5 moved no pick against 1e-6 (README,
# "Model"), while 1e-4 swapped two near-tied picks of a large-pool run.
_ROUND_SWEEPS = 50
_ROUND_TOLERANCE = 5e-5

# Noise sd of the synthetic dataset's structural residual.
_RESIDUAL_SD = 4.7


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _csv_lines(records):
    yield ",".join(f.name for f in fields(RoundRecord)) + "\n"
    for r in records:
        yield (f"{r.rep},{r.round},{r.instance},{r.annotator},"
               f"{_fmt(r.label)},{int(r.accepted)},{_fmt(r.rmse)},"
               f"{_fmt(r.regret)},{r.discarded},{_fmt(r.payment)}\n")


def _jsonl_lines(records):
    for r in records:
        # keys in field order; the overrides keep their positions
        obj = dict(vars(r), label=float(_fmt(r.label)),
                   accepted=bool(r.accepted), rmse=float(_fmt(r.rmse)),
                   regret=float(_fmt(r.regret)), payment=float(_fmt(r.payment)))
        yield json.dumps(obj) + "\n"


# Record file format -> line writer; the first entry is the default.
_WRITERS = {"csv": _csv_lines, "jsonl": _jsonl_lines}
FORMATS = tuple(_WRITERS)


# Declared config field type (a string: annotations are postponed) -> test
# of a value.  Integers reject bool and float; numbers reject bool.
_TYPE_TESTS = {
    "int": _is_int,
    "float": _is_real,
    "float | None": lambda v: v is None or _is_real(v),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "tuple[float, ...]": lambda v: (isinstance(v, (list, tuple))
                                    and all(map(_is_real, v))),
    "tuple[float, float]": lambda v: (_TYPE_TESTS["tuple[float, ...]"](v)
                                      and len(v) == 2),
}

# Config key -> (test of a well-typed value given the config, requirement).
# Fields are tested in declaration order, so num_good meets a checked
# num_annotators.
_LIMITS = {
    "transform": (lambda v, c: v in ("linear", "sigmoid"),
                  "must be 'linear' or 'sigmoid'"),
    "s_grid": (lambda v, c: len(v) > 0 and all(0 < s < math.inf for s in v),
               "must hold finite values > 0"),
    "test_fraction": (lambda v, c: 0 < v < 1, "must lie in (0, 1)"),
    "num_good": (lambda v, c: 0 <= v <= c.num_annotators,
                 "must lie in [0, num_annotators]"),
    "strategy": (lambda v, c: v in STRATEGIES, f"must be one of {STRATEGIES}"),
    "output_format": (lambda v, c: v in FORMATS, f"must be one of {FORMATS}"),
    **dict.fromkeys(("interval_good", "interval_bad"),
                    (lambda v, c: 0 < v[0] <= v[1] < math.inf,
                     "must satisfy 0 < lo <= hi < inf")),
    **dict.fromkeys(("payment_budget", "u_override", "beta_lower",
                     "beta_upper"),
                    (lambda v, c: v is None or 0 < v < math.inf,
                     "must be finite and > 0")),
    **dict.fromkeys(("seed_pool_size", "num_annotators", "repetitions"),
                    (lambda v, c: v >= 1, "must be >= 1")),
    **dict.fromkeys(("budget", "base_seed"),
                    (lambda v, c: v >= 0, "must be >= 0")),
}


# The horizon's terms, each a product of config keys, summed.
_HORIZON_TERMS = (("seed_pool_size", "num_annotators"), ("budget",))


def _overflowing_keys(config) -> list[str]:
    """The keys whose horizon term is beyond the float range: within such a
    term, those beyond it on their own, else all of the term's.  All the
    horizon's keys when only the sum overflows."""
    keys = []
    for term in _HORIZON_TERMS:
        values = [getattr(config, k) for k in term]
        if math.prod(values) > sys.float_info.max:
            keys += [k for k, v in zip(term, values)
                     if v > sys.float_info.max] or term
    return keys or [k for term in _HORIZON_TERMS for k in term]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; mirrors the config-file key names exactly.

    Construction checks each field's type and limits, then the resolved
    payment band and moment bound, and names the first offending key.  For
    a strategy with the UCB bandit, the moment bound must also pass the
    bandit's own checks at the largest horizon the run can reach.
    """

    data_path: str | None = None
    transform: str = "linear"
    s_grid: tuple[float, ...] = (1.0,)
    test_fraction: float = 0.3
    seed_pool_size: int = 10
    num_annotators: int = 50
    num_good: int = 40
    interval_good: tuple[float, float] = (0.1, 1.0)
    interval_bad: tuple[float, float] = (1.0, 2.0)
    budget: int = 100
    strategy: str = STRATEGIES[0]
    u_override: float | None = None
    payment_budget: float = 1.0
    beta_lower: float | None = None
    beta_upper: float | None = None
    repetitions: int = 10
    base_seed: int = 0
    output_path: str | None = None
    output_format: str = FORMATS[0]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            requirement = None
            if not _TYPE_TESTS[f.type](value):
                requirement = f"must be of type {f.type}"
            elif f.name in _LIMITS and not _LIMITS[f.name][0](value, self):
                requirement = _LIMITS[f.name][1]
            if requirement:
                raise InvalidInputError(
                    f"config key {f.name!r} {requirement}, got {value!r}")
            if f.type.startswith("tuple"):
                object.__setattr__(self, f.name, tuple(map(float, value)))
        self.scheme()
        u = self.moment_bound()
        if _RULES[self.strategy][1] == "ucb":
            # The bandit's checks grow with the horizon: pass at the largest
            # one the run can reach, and every run passes them.
            horizon = self.seed_pool_size * self.num_annotators + self.budget
            try:
                bd._checked_bounds(u, max(horizon, 2))
            except InvalidInputError as exc:
                if horizon > sys.float_info.max:  # no moment bound passes
                    keys = _overflowing_keys(self)
                    raise InvalidInputError(
                        f"config key{'s' * (len(keys) > 1)} "
                        f"{', '.join(map(repr, keys))}: the largest horizon "
                        f"seed_pool_size * num_annotators + budget is beyond "
                        f"the float range") from None
                key = ("interval_bad" if self.u_override is None
                       else "u_override")
                raise InvalidInputError(f"config key {key!r}: {exc}") from None

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise InvalidInputError(
                f"unknown config keys: {sorted(unknown, key=repr)}"
            )
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                values = json.load(fh)
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"config file {path}: not UTF-8 text "
                                      f"({exc.reason})") from None
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"config file {path}: {exc}") from None
        if not isinstance(values, dict):
            raise DataFormatError(f"config file {path} must hold an object")
        return cls.from_dict(values)

    def moment_bound(self) -> float:
        """u for the bandit: override, or 3 interval_bad[1]^4 (Gaussian noise)."""
        if self.u_override is not None:
            return float(self.u_override)
        return _derived("interval_bad", self.interval_bad,
                        "the moment bound 3 hi^4",
                        lambda: 3.0 * self.interval_bad[1] ** 4)

    def scheme(self) -> PaymentScheme:
        """Payment band; defaults bracket the configured noise intervals:
        1 / interval_bad[1]^2 below and 1 / interval_good[0]^2 above.  An
        empty band is reported against beta_lower, naming where each end
        comes from."""
        lower, upper = self.beta_lower, self.beta_upper
        origins = ["config key 'beta_lower'", "config key 'beta_upper'"]
        if lower is None:
            lower = _derived("interval_bad", self.interval_bad,
                             "the band end 1 / hi^2",
                             lambda: 1.0 / self.interval_bad[1] ** 2)
            origins[0] = "1 / hi^2 of config key 'interval_bad'"
        if upper is None:
            upper = _derived("interval_good", self.interval_good,
                             "the band end 1 / lo^2",
                             lambda: 1.0 / self.interval_good[0] ** 2)
            origins[1] = "1 / lo^2 of config key 'interval_good'"
        if not lower < upper:
            raise InvalidInputError(
                f"config key 'beta_lower': need beta_lower < beta_upper, got "
                f"beta_lower {lower!r} ({origins[0]}) and beta_upper "
                f"{upper!r} ({origins[1]})")
        return PaymentScheme(self.payment_budget, lower, upper)


def _derived(key, interval, what, compute) -> float:
    """``compute()`` if it is finite and > 0, else an error naming the config
    ``key`` whose ``interval`` it derives from.  Python floats raise on
    overflow in ``**`` and on division by a square that underflowed to 0."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0 < value < math.inf:
        raise InvalidInputError(
            f"config key {key!r}: {what} is not finite and > 0, got "
            f"{interval!r}")
    return value


@dataclass(frozen=True)
class RoundRecord:
    """One emitted row: what was procured this round and where metrics stand."""

    rep: int
    round: int
    instance: int
    annotator: int
    label: float
    accepted: bool
    rmse: float
    regret: float
    discarded: int
    payment: float


def _parses(cell) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path):
    """Numeric matrix from a comma-separated file; final column is the target.

    A leading UTF-8 byte-order mark is dropped.  A header row is detected by
    a non-numeric first row and skipped.  Any unparseable or non-finite
    (``nan``, ``inf``) cell in a data row raises with its 1-based line (blank
    lines count) and column.

    Fast path: the first non-blank row is read with the csv module to tell a
    header from data, and the rest of the file (all of it when there is no
    header) goes to numpy's C reader.  Its matrix is returned when it has a
    row, at least 2 columns and only finite values.  Any other outcome (a
    cell the C reader cannot parse, a quoted cell, a ragged row, a
    whitespace-only line, a non-finite value, no data) sends the file to the
    row-by-row reader, which returns the same matrix or raises the located
    error.  Both readers round each cell as ``float`` does, so the two paths
    agree to the bit.
    """
    import warnings  # numpy has imported it already

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            if all(map(_parses, next(filter(None, csv.reader(fh)), ()))):
                fh.seek(0)  # no header: the first row is data
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. "input contained no data"
                matrix = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                    dtype=float)
        except (ValueError, Warning, csv.Error):
            matrix = None
    if (matrix is not None and matrix.shape[0] >= 1 and matrix.shape[1] >= 2
            and np.isfinite(matrix).all()):
        return matrix
    return _load_csv_located(path)


def _load_csv_located(path):
    """``load_csv``'s row-by-row reader: converts rows as they are read and
    names the 1-based line (blank lines count) and column of a bad cell."""
    values, width, header = array("d"), None, False
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in filter(None, reader):
                r = reader.line_num
                if width is not None and len(row) != width:
                    raise DataFormatError(
                        f"{path}: row {r} has {len(row)} cells, expected {width}"
                    )
                try:
                    parsed = [float(cell) for cell in row]
                except ValueError:
                    if width is None and not header:  # a non-numeric first row
                        header = True
                        continue
                    for c, cell in enumerate(row, start=1):
                        try:
                            float(cell)
                        except ValueError:
                            raise DataFormatError(f"{path}: row {r}, column {c}: "
                                                  f"cannot parse {cell!r}") from None
                if width is None:
                    width = len(row)
                    if width < 2:
                        raise DataFormatError(f"{path}: need at least 2 columns "
                                              f"(features plus target), got {width}")
                if not all(map(math.isfinite, parsed)):
                    c = next(c for c, v in enumerate(parsed, start=1)
                             if not math.isfinite(v))
                    raise DataFormatError(f"{path}: row {r}, column {c}: "
                                          f"non-finite value {parsed[c - 1]}")
                values.extend(parsed)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text "
                                  f"({exc.reason})") from None
    if width is None:
        raise DataFormatError(f"{path}: no data rows after the header" if header
                              else f"{path}: file holds no rows")
    return np.frombuffer(values).reshape(-1, width)


def rmse(predicted, truth) -> float:
    """Root mean squared error between two equally long vectors."""
    p = np.asarray(predicted, dtype=float)
    z = np.asarray(truth, dtype=float)
    if p.shape != z.shape or p.ndim != 1 or p.size == 0:
        raise InvalidInputError("predicted and truth must be equal-length, non-empty")
    # np.mean's own sum and division, without its Python wrapper
    return math.sqrt(np.add.reduce((p - z) ** 2) / p.size)


def emit_records(records, path, fmt: str = FORMATS[0]) -> None:
    """Write records as CSV (fixed header) or JSON lines; see ``FORMATS``.

    Floating values are rendered with 9 significant digits; field order is
    fixed, so identical records produce identical bytes.
    """
    if fmt not in _WRITERS:
        raise InvalidInputError(f"format must be one of {FORMATS}, got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_WRITERS[fmt](records))


def summarize(records):
    """Per-repetition (rep, final rmse, final regret, discarded, paid)."""
    last = {r.rep: r for r in records}
    return [(r.rep, r.rmse, r.regret, r.discarded, r.payment)
            for r in last.values()]


def synthetic_housing_like(seed: int = 0, n: int = 506, d: int = 12):
    """Deterministic stand-in for a mid-sized tabular regression dataset.

    Features carry a mild cluster structure; targets are linear in the
    normalized features plus a structural residual whose scale mimics a real
    dataset's irreducible error, so the spread and the attainable accuracy are
    both realistic.  Used whenever no data file is supplied.
    """
    rng = np.random.default_rng(_seed(seed))
    n, d = _integer(n, "n", 1), _integer(d, "d", 1)
    centers = rng.uniform(-3.0, 3.0, size=(6, d))
    assign = rng.integers(6, size=n)
    X = centers[assign] + rng.normal(0.0, 1.0, size=(n, d))
    Xn, _ = normalize(X)
    w = rng.normal(size=d)
    w = w * (8.0 / max((Xn @ w).std(), 1e-12))
    y = Xn @ w + rng.normal(0.0, _RESIDUAL_SD, size=n)
    return X, y


def _fit_block(instances, columns, block, priors):
    """``(dataset, weights, precisions)``: the block form of a dataset over
    ``instances``, in which ``block[j, c]`` is annotator ``j``'s answer on
    row ``columns[c]``, and its fit under ``priors``, a (weight prior,
    precision priors) pair, at the fit's defaults."""
    dataset = CrowdDataset(instances, columns, None, block, block.shape[0])
    return dataset, *fit_variational(dataset, *priors)[:2]


def _choose_scale(config, rep_seed, features, centers, seed_answers, priors):
    """Pick the sigmoid scale from ``s_grid`` by held-out validation.

    ``seed_answers`` is the m x k block of crowd answers on the first k pool
    rows.  With a single candidate there is nothing to choose.  Otherwise
    20% of those rows are held out, each candidate's model is fitted under
    ``priors`` on the block's other columns, and it is scored by RMSE
    against the held-out mean crowd label.
    """
    if len(config.s_grid) == 1:
        return config.s_grid[0]
    k = seed_answers.shape[1]
    perm = np.random.default_rng([rep_seed, _SGRID]).permutation(k)
    cut = max(1, k // 5)
    val_idx, train_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
    if not train_idx.size:
        return config.s_grid[0]
    val_target = seed_answers[:, val_idx].mean(axis=0)
    best_s, best_err = None, np.inf
    for s in config.s_grid:
        spec = TransformSpec(centers, s)
        phi = transform(features[:k], spec)
        weights = _fit_block(phi, train_idx, seed_answers[:, train_idx],
                             priors)[1]
        err = rmse(phi[val_idx] @ weights.mean, val_target)
        if err < best_err:
            best_s, best_err = s, err
    return best_s


@dataclass(frozen=True, eq=False)
class _Repetition:
    """One repetition's set-up, which ``_setup`` builds once.

    ``pool_idx`` maps pool positions to data rows, and ``answers[j, i]`` is
    annotator ``j``'s label on pool row ``i``; ``efforts`` are the
    annotators' true precisions.  ``priors`` is the one (weight prior,
    precision priors) pair under which every fit of the repetition runs: the
    scale search, the seed fit and each round's refit.
    ``dataset`` is the seed block over the pool features, and ``weights``
    and ``precisions`` are its fit.
    """

    test_phi: np.ndarray
    test_z: np.ndarray
    pool_idx: np.ndarray
    answers: np.ndarray
    efforts: np.ndarray
    priors: tuple[WeightPosterior, PrecisionPosterior]
    dataset: CrowdDataset
    weights: WeightPosterior
    precisions: PrecisionPosterior

    def test_rmse(self, weights) -> float:
        """RMSE of the posterior mean ``weights.mean`` on the test split."""
        return rmse(self.test_phi @ weights.mean, self.test_z)


def _setup(config, data, rep_seed, k) -> _Repetition:
    """Split, normalize, draw the population and its answers, label the first
    ``k`` pool rows (all of them when ``k`` is None) with every annotator,
    transform the features and fit.

    ``answers`` is ``crowd._answers`` on the pool's true values under the
    seed ``[rep_seed, _LABEL]``, so a label depends only on (rep_seed,
    annotator, pool row), whichever strategy asks for it and in whatever
    order.

    The seed dataset is the block form of ``CrowdDataset`` with the columns
    ``arange(k)`` and the block ``answers[:, :k]``, passed as a view.  The
    answers come first: a grid-searched sigmoid scale needs them.  The
    priors are built once, at the pool's width, which the sigmoid transform
    keeps (k-means fits one center per feature).
    """
    X, z = data
    n, d = X.shape
    perm = np.random.default_rng([rep_seed, _SPLIT]).permutation(n)
    n_test = min(max(round(n * config.test_fraction), 1), n - 1)
    test_idx, pool_idx = perm[:n_test], perm[n_test:]
    pool_norm, params = normalize(X[pool_idx])
    test_norm = apply_normalization(X[test_idx], params)
    pool_z, test_z = z[pool_idx], z[test_idx]

    if _RULES[config.strategy][1] == "source":
        profiles = [AnnotatorProfile(1.0 / _SINGLE_SOURCE_SD**2)]
    else:
        profiles = make_annotators(
            config.num_annotators, config.num_good,
            config.interval_good, config.interval_bad,
            seed=[rep_seed, _ANNOT],
        )
    m = len(profiles)
    priors = (default_weight_prior(d), default_precision_priors(m))
    efforts = np.array([p.best_precision for p in profiles])
    answers = _answers(efforts, pool_z, [rep_seed, _LABEL])
    seed_answers = answers[:, :k]

    pool_phi, test_phi = pool_norm, test_norm
    if config.transform == "sigmoid":
        centers = _sigmoid_centers(pool_norm, [rep_seed, _KMEANS])
        s = _choose_scale(config, rep_seed, pool_norm, centers, seed_answers,
                          priors)
        spec = TransformSpec(centers, s)
        pool_phi, test_phi = transform(pool_norm, spec), transform(test_norm, spec)
    seed_fit = _fit_block(pool_phi, np.arange(seed_answers.shape[1]),
                          seed_answers, priors)
    return _Repetition(test_phi, test_z, pool_idx, answers, efforts, priors,
                       *seed_fit)


def _sigmoid_centers(pool, seed):
    """``fit_centers`` with one center per feature of ``pool``.  Too few
    distinct pool rows fail naming the ``transform`` key; the distinct rows
    are counted again only on that path, since ``fit_centers`` counts them
    for its own check."""
    d = pool.shape[1]
    try:
        return fit_centers(pool, d, seed)
    except InvalidInputError:
        distinct = np.unique(pool, axis=0).shape[0]
        if distinct >= d:
            raise
    raise InvalidInputError(
        f"config key 'transform': 'sigmoid' fits one k-means center per "
        f"feature, but the pool has {distinct} distinct rows for its {d} "
        f"features")


def _run_repetition(config, data, rep):
    rep_seed = config.base_seed + rep
    setup = _setup(config, data, rep_seed, config.seed_pool_size)
    dataset, weights, precisions = setup.dataset, setup.weights, setup.precisions
    pool_phi, m = dataset.instances, dataset.num_annotators
    seed_count = min(config.seed_pool_size, dataset.n)
    ledger = bd.RegretLedger.from_precisions(setup.efforts)
    scheme = config.scheme()
    strategy_rng = np.random.default_rng([rep_seed, _STRATEGY])
    instance_rule, annotator_rule = _RULES[config.strategy]

    state = None
    if annotator_rule == "ucb":
        horizon = max(seed_count * m + config.budget, 2)
        state = bd.BanditState(m, config.moment_bound(), horizon=horizon)
        # per-row dot products, as the round loop takes them: a matrix
        # product could round differently
        predictions = [weights.mean @ pool_phi[i] for i in range(seed_count)]
        bd.initialize_state(state, [
            [(y - p) ** 2 for y, p in zip(row, predictions)]
            for row in setup.answers[:, :seed_count]
        ])

    paid = seed_count * sum(settle(precisions, scheme).tolist())
    discarded = 0 if state is None else state.discarded
    records = [RoundRecord(rep, 0, -1, -1, 0.0, True, setup.test_rmse(weights),
                           0.0, discarded, paid)]

    unlabeled = np.arange(seed_count, dataset.n)
    for t in range(1, min(config.budget, unlabeled.size) + 1):
        # instance first, then annotator: both may draw from strategy_rng
        if instance_rule == "uniform":
            pos = int(unlabeled[strategy_rng.integers(unlabeled.size)])
        else:
            pos = select_instance(unlabeled, pool_phi, weights)
        if state is not None:
            j = bd.select_annotator(state)
        else:  # over the one-source population this is 0 and draws nothing
            j = int(strategy_rng.integers(m))

        y = float(setup.answers[j, pos])
        dataset = dataset.with_label(pos, j, y)
        weights, precisions, _ = fit_variational(
            dataset, *setup.priors, tolerance=_ROUND_TOLERANCE,
            max_sweeps=_ROUND_SWEEPS, warm_start=(weights, precisions),
        )
        accepted = True
        if state is not None:
            residual_sq = float((y - weights.mean @ pool_phi[pos]) ** 2)
            accepted = bd.record_outcome(state, j, residual_sq)
            discarded = state.discarded
        ledger.record_pull(j)
        paid += payment(precisions.shape[j] / precisions.rate[j], scheme)
        unlabeled = unlabeled[unlabeled != pos]

        records.append(RoundRecord(
            rep, t, int(setup.pool_idx[pos]), j, y, accepted,
            setup.test_rmse(weights), bd.regret_seq(ledger), discarded, paid,
        ))
    return records


@functools.cache
def _builtin_data():
    """``synthetic_housing_like()``, built once per process, read-only."""
    X, y = synthetic_housing_like()
    X.flags.writeable = y.flags.writeable = False
    return X, y


def _load_data(config):
    if config.data_path is None:
        return _builtin_data()
    matrix = load_csv(config.data_path)
    if matrix.shape[0] < 2:
        raise DataFormatError(
            f"{config.data_path}: {matrix.shape[0]} data row; the train/test "
            f"split needs at least 2 rows")
    return matrix[:, :-1], matrix[:, -1]


def run_experiment(config: ExperimentConfig):
    """Run every repetition of the configured protocol; returns all records.

    Identical (config, base seed) pairs yield identical record streams.  A
    repetition runs ``budget`` rounds, or fewer if the unlabeled pool runs
    dry first.
    """
    data = _load_data(config)
    records = []
    for rep in range(config.repetitions):
        records.extend(_run_repetition(config, data, rep))
    return records


def full_fit(config: ExperimentConfig):
    """No-active-learning mode: the whole training pool labeled by everyone.

    For each repetition the data are split and transformed as usual, every
    pool instance is labeled by every annotator, the model is fitted once, and
    the test RMSE is recorded.  Returns the per-repetition RMSE list.
    """
    data = _load_data(config)
    scores = []
    for rep in range(config.repetitions):
        setup = _setup(config, data, config.base_seed + rep, None)
        scores.append(setup.test_rmse(setup.weights))
    return scores
