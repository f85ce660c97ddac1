"""Experiment orchestration: data ingestion, the active-learning protocol,
baseline strategies, metrics, and record emission.

A run splits the data (seeded), normalizes and transforms features, simulates
an annotator population, labels a small seed pool with every annotator, fits
the variational model, then procures one label per round: pick an instance,
pick an annotator (per strategy), draw a noisy label, refit with a warm start,
and update the bandit and regret accounting.  Every round appends one record.

Repetitions are independent given the base seed; reruns with the same
configuration produce byte-identical record files.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from . import bandit as bd
from .crowd import AnnotatorProfile, label_value, make_annotators
from .errors import DataFormatError, InvalidInputError
from .features import (TransformSpec, apply_normalization, fit_centers,
                       normalize, transform)
from .mechanism import PaymentScheme, settle
from .model import (CrowdDataset, default_precision_priors,
                    default_weight_prior, fit_variational)
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
    "synthetic_linear",
]

# Strategy -> (instance rule, annotator rule); the first is the default.
# Instance rules: "variance" or "uniform" (a uniform random draw).  Annotator
# rules: "ucb" (robust UCB bandit), "uniform" or "source" (one near-noiseless
# annotator).
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


def _is_real(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


# Declared config field type (a string: annotations are postponed) -> test
# of a value.  Integers reject bool and float; numbers reject bool.
_TYPE_TESTS = {
    "int": lambda v: isinstance(v, Integral) and not isinstance(v, bool),
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
    "s_grid": (lambda v, c: len(v) > 0 and min(v) > 0,
               "must hold positive values"),
    "test_fraction": (lambda v, c: 0 < v < 1, "must lie in (0, 1)"),
    "num_good": (lambda v, c: 0 <= v <= c.num_annotators,
                 "must lie in [0, num_annotators]"),
    "strategy": (lambda v, c: v in STRATEGIES, f"must be one of {STRATEGIES}"),
    "output_format": (lambda v, c: v in FORMATS, f"must be one of {FORMATS}"),
    "vi_tolerance": (lambda v, c: v > 0, "must be > 0"),
    **dict.fromkeys(("seed_pool_size", "num_annotators", "repetitions",
                     "initial_sweeps", "round_sweeps"),
                    (lambda v, c: v >= 1, "must be >= 1")),
    **dict.fromkeys(("budget", "base_seed"),
                    (lambda v, c: v >= 0, "must be >= 0")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; mirrors the config-file key names exactly.

    Construction checks each field's type and limits and names the first
    offending key.
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
    sigma_max: float | None = None
    payment_budget: float = 1.0
    beta_lower: float | None = None
    beta_upper: float | None = None
    repetitions: int = 10
    base_seed: int = 0
    output_path: str | None = None
    output_format: str = FORMATS[0]
    target_rmse: float | None = None
    vi_tolerance: float = 1e-6
    initial_sweeps: int = 200
    round_sweeps: int = 50

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

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise InvalidInputError(
                f"unknown config keys: {sorted(unknown)}"
            )
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"config file {path}: {exc}") from None
        if not isinstance(values, dict):
            raise DataFormatError(f"config file {path} must hold an object")
        return cls.from_dict(values)

    def moment_bound(self) -> float:
        """u for the bandit: override, or 3 sigma_max^4 under Gaussian noise."""
        if self.u_override is not None:
            return float(self.u_override)
        sigma = self.sigma_max if self.sigma_max is not None else self.interval_bad[1]
        return 3.0 * float(sigma) ** 4

    def scheme(self) -> PaymentScheme:
        """Payment band; defaults bracket the configured noise intervals."""
        lower = self.beta_lower
        upper = self.beta_upper
        if lower is None:
            lower = 1.0 / self.interval_bad[1] ** 2
        if upper is None:
            upper = 1.0 / self.interval_good[0] ** 2
        return PaymentScheme(self.payment_budget, lower, upper)


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


def load_csv(path):
    """Numeric matrix from a comma-separated file; final column is the target.

    A header row is detected by a non-numeric first row and skipped.  Any
    unparseable or non-finite (``nan``, ``inf``) cell in a data row raises
    with its 1-based row and column.  Rows are converted as they are read, so
    the file's text is never held whole.
    """
    values, width, header = array("d"), None, 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for r, row in enumerate(filter(None, csv.reader(fh)), start=1):
            if width is not None and len(row) != width:
                raise DataFormatError(
                    f"{path}: row {r} has {len(row)} cells, expected {width}"
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError:
                if r == 1:  # a non-numeric first row is a header
                    header = 1
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
            values.extend(parsed)
    if width is None:
        raise DataFormatError(f"{path}: no data rows after the header" if header
                              else f"{path}: file holds no rows")
    matrix = np.frombuffer(values).reshape(-1, width)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(f"{path}: row {header + r + 1}, column {c + 1}: "
                              f"non-finite value {float(matrix[r, c])}")
    return matrix


def rmse(predicted, truth) -> float:
    """Root mean squared error between two equally long vectors."""
    p = np.asarray(predicted, dtype=float)
    z = np.asarray(truth, dtype=float)
    if p.shape != z.shape or p.ndim != 1 or p.size == 0:
        raise InvalidInputError("predicted and truth must be equal-length, non-empty")
    return float(np.sqrt(np.mean((p - z) ** 2)))


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


def synthetic_linear(n: int, d: int, seed, noise_sd: float = 0.0,
                     weight_scale: float = 1.0):
    """Plain linear ground truth; returns (X, targets, true weights)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = weight_scale * rng.normal(size=d)
    y = X @ w
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return X, y, w


def synthetic_housing_like(seed: int = 0, n: int = 506, d: int = 12,
                           residual_sd: float = 4.7):
    """Deterministic stand-in for a mid-sized tabular regression dataset.

    Features carry a mild cluster structure; targets are linear in the
    normalized features plus a structural residual whose scale mimics a real
    dataset's irreducible error, so the spread and the attainable accuracy are
    both realistic.  Used whenever no data file is supplied.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(6, d))
    assign = rng.integers(6, size=n)
    X = centers[assign] + rng.normal(0.0, 1.0, size=(n, d))
    Xn, _ = normalize(X)
    w = rng.normal(size=d)
    w = w * (8.0 / max((Xn @ w).std(), 1e-12))
    y = Xn @ w + rng.normal(0.0, residual_sd, size=n)
    return X, y


def _label_rng(rep_seed: int, annotator: int, instance: int):
    return np.random.default_rng([rep_seed, _LABEL, annotator, instance])


def _choose_scale(config, rep_seed, pool_features, centers, labels, m):
    """Pick the sigmoid scale from ``s_grid`` by held-out validation.

    ``labels`` covers the first k pool rows, each labeled by all ``m``
    annotators.  With a single candidate there is nothing to choose.
    Otherwise 20% of those rows are held out and each candidate is scored by
    RMSE of the fitted model against the held-out mean crowd label.
    """
    if len(config.s_grid) == 1:
        return config.s_grid[0]
    k = len(labels) // m
    perm = np.random.default_rng([rep_seed, _SGRID]).permutation(k)
    val_idx = sorted(perm[:max(1, k // 5)])
    val_set = set(val_idx)
    train_labels = {key: y for key, y in labels.items() if key[0] not in val_set}
    if not train_labels:
        return config.s_grid[0]
    val_target = np.array([np.mean([labels[(i, j)] for j in range(m)])
                           for i in val_idx])
    best_s, best_err = None, np.inf
    for s in config.s_grid:
        spec = TransformSpec(centers, s, "sigmoid")
        phi = transform(pool_features, spec)
        ds = CrowdDataset(phi, train_labels, m)
        weights, _, _ = fit_variational(
            ds, default_weight_prior(phi.shape[1]), default_precision_priors(m),
            tolerance=config.vi_tolerance, max_sweeps=config.initial_sweeps,
        )
        err = rmse(phi[val_idx] @ weights.mean, val_target)
        if err < best_err:
            best_s, best_err = s, err
    return best_s


def _setup(config, data, rep_seed, k):
    """Split, normalize, draw the population, label the first ``k`` pool
    rows (all of them when ``k`` is None) with every annotator, transform the
    features and fit.

    Returns ``(test_phi, test_z, weights, precisions, dataset, pool_idx,
    pool_z, profiles, efforts)``; ``pool_idx`` maps pool positions to data
    rows.  The labels come first: a grid-searched sigmoid scale needs them.
    """
    X, z = data
    n = X.shape[0]
    perm = np.random.default_rng([rep_seed, _SPLIT]).permutation(n)
    n_test = int(round(n * config.test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    test_idx, pool_idx = perm[:n_test], perm[n_test:]
    pool_norm, params = normalize(X[pool_idx])
    test_norm = apply_normalization(X[test_idx], params)
    pool_z, test_z = z[pool_idx], z[test_idx]

    if _RULES[config.strategy][1] == "source":
        profiles = [AnnotatorProfile(id=0,
                                     best_precision=1.0 / _SINGLE_SOURCE_SD**2)]
    else:
        profiles = make_annotators(
            config.num_annotators, config.num_good,
            config.interval_good, config.interval_bad,
            seed=[rep_seed, _ANNOT],
        )
    m = len(profiles)
    efforts = np.array([p.best_precision for p in profiles])
    labels = {}
    for i in range(pool_idx.size)[:k]:
        for j, profile in enumerate(profiles):
            labels[(i, j)] = label_value(profile, float(pool_z[i]), efforts[j],
                                         _label_rng(rep_seed, j, i))

    pool_phi, test_phi = pool_norm, test_norm
    if config.transform == "sigmoid":
        centers = fit_centers(pool_norm, pool_norm.shape[1],
                              [rep_seed, _KMEANS])
        s = _choose_scale(config, rep_seed, pool_norm, centers, labels, m)
        spec = TransformSpec(centers, s, "sigmoid")
        pool_phi, test_phi = transform(pool_norm, spec), transform(test_norm, spec)
    dataset = CrowdDataset(pool_phi, labels, m)
    weights, precisions, _ = fit_variational(
        dataset, default_weight_prior(dataset.d), default_precision_priors(m),
        tolerance=config.vi_tolerance, max_sweeps=config.initial_sweeps,
    )
    return (test_phi, test_z, weights, precisions, dataset, pool_idx, pool_z,
            profiles, efforts)


def _run_repetition(config, data, rep):
    rep_seed = config.base_seed + rep
    instance_rule, annotator_rule = _RULES[config.strategy]
    (test_phi, test_z, weights, precisions, dataset, pool_idx, pool_z, profiles,
     efforts) = _setup(config, data, rep_seed, config.seed_pool_size)
    pool_phi = dataset.instances
    m = len(profiles)
    seed_count = min(config.seed_pool_size, dataset.n)
    weight_prior = default_weight_prior(dataset.d)
    precision_priors = default_precision_priors(m)
    ledger = bd.RegretLedger.from_precisions(efforts)
    scheme = config.scheme()
    strategy_rng = np.random.default_rng([rep_seed, _STRATEGY])

    state = None
    if annotator_rule == "ucb":
        horizon = max(seed_count * m + config.budget, 2)
        state = bd.BanditState(m, config.moment_bound(), horizon=horizon)
        bd.initialize_state(state, [
            [(dataset.labels[(i, j)] - weights.mean @ pool_phi[i]) ** 2
             for i in range(seed_count)]
            for j in range(m)
        ])

    paid = seed_count * sum(settle(precisions[j], scheme) for j in range(m))
    discarded = 0 if state is None else state.discarded
    records = [RoundRecord(
        rep, 0, -1, -1, 0.0, True,
        rmse(test_phi @ weights.mean, test_z), 0.0, discarded, paid,
    )]

    unlabeled = np.arange(seed_count, dataset.n)
    for t in range(1, config.budget + 1):
        if unlabeled.size == 0:
            break  # pool exhausted before the budget; stop early
        # instance first, then annotator: both may draw from strategy_rng
        if instance_rule == "uniform":
            pos = int(unlabeled[strategy_rng.integers(unlabeled.size)])
        else:
            pos = select_instance(unlabeled, pool_phi, weights)
        if annotator_rule == "ucb":
            j = bd.select_annotator(state)
        elif annotator_rule == "source":
            j = 0
        else:
            j = int(strategy_rng.integers(m))

        y = label_value(profiles[j], float(pool_z[pos]), efforts[j],
                        _label_rng(rep_seed, j, pos))
        dataset = dataset.with_label(pos, j, y)
        weights, precisions, _ = fit_variational(
            dataset, weight_prior, precision_priors,
            tolerance=config.vi_tolerance, max_sweeps=config.round_sweeps,
            warm_start=(weights, precisions),
        )
        accepted = True
        if state is not None:
            residual_sq = float((y - weights.mean @ pool_phi[pos]) ** 2)
            accepted = bd.record_outcome(state, j, residual_sq)
            discarded = state.discarded
        ledger.record_pull(j)
        paid += settle(precisions[j], scheme)
        unlabeled = unlabeled[unlabeled != pos]

        test_rmse = rmse(test_phi @ weights.mean, test_z)
        records.append(RoundRecord(
            rep, t, int(pool_idx[pos]), j, float(y), accepted, test_rmse,
            bd.regret_seq(ledger), discarded, paid,
        ))
        if config.target_rmse is not None and test_rmse <= config.target_rmse:
            break
    return records


def _load_data(config):
    if config.data_path is None:
        return synthetic_housing_like()
    matrix = load_csv(config.data_path)
    return matrix[:, :-1], matrix[:, -1]


def run_experiment(config: ExperimentConfig):
    """Run every repetition of the configured protocol; returns all records.

    Identical (config, base seed) pairs yield identical record streams.  If
    the unlabeled pool runs dry before the budget, the repetition stops early
    and simply emits fewer rounds.
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
        test_phi, test_z, weights, *_ = _setup(config, data,
                                               config.base_seed + rep, None)
        scores.append(rmse(test_phi @ weights.mean, test_z))
    return scores
