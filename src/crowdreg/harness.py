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
from dataclasses import dataclass, fields
from pathlib import Path

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

STRATEGIES = ("robust_ucb", "random", "instance_only", "single_source")

# Sub-stream tags so that split, k-means, annotator draws, strategy
# randomness and label noise never share a generator.
_SPLIT, _KMEANS, _ANNOT, _STRATEGY, _LABEL, _SGRID = range(6)

_SINGLE_SOURCE_SD = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; mirrors the config-file key names exactly."""

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
    strategy: str = "robust_ucb"
    u_override: float | None = None
    sigma_max: float | None = None
    payment_budget: float = 1.0
    beta_lower: float | None = None
    beta_upper: float | None = None
    repetitions: int = 10
    base_seed: int = 0
    output_path: str | None = None
    output_format: str = "csv"
    target_rmse: float | None = None
    vi_tolerance: float = 1e-6
    initial_sweeps: int = 200
    round_sweeps: int = 50

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise InvalidInputError("test_fraction must lie in (0, 1)")
        if self.budget < 0:
            raise InvalidInputError("budget must be >= 0")
        if self.repetitions < 1:
            raise InvalidInputError("repetitions must be >= 1")
        if self.seed_pool_size < 1:
            raise InvalidInputError("seed_pool_size must be >= 1")
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.transform not in ("linear", "sigmoid"):
            raise InvalidInputError("transform must be 'linear' or 'sigmoid'")
        if self.output_format not in ("csv", "jsonl"):
            raise InvalidInputError("output_format must be 'csv' or 'jsonl'")
        if self.base_seed < 0:
            raise InvalidInputError("base_seed must be >= 0")
        if len(self.s_grid) < 1 or any(s <= 0 for s in self.s_grid):
            raise InvalidInputError("s_grid must hold positive values")
        object.__setattr__(self, "s_grid", tuple(float(s) for s in self.s_grid))
        object.__setattr__(self, "interval_good", tuple(self.interval_good))
        object.__setattr__(self, "interval_bad", tuple(self.interval_bad))

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
    with its 1-based row and column.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        raw = [row for row in reader if row]
    if not raw:
        raise DataFormatError(f"{path}: file holds no rows")
    start = 0
    try:
        [float(cell) for cell in raw[0]]
    except ValueError:
        start = 1
    if not raw[start:]:
        raise DataFormatError(f"{path}: no data rows after the header")
    width = len(raw[start])
    if width < 2:
        raise DataFormatError(
            f"{path}: need at least 2 columns (features plus target), got {width}"
        )
    for r, row in enumerate(raw[start:], start=start + 1):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r}, column {c}: cannot parse {cell!r}"
                ) from None
        rows.append(parsed)
    matrix = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(
            f"{path}: row {start + r + 1}, column {c + 1}: non-finite value "
            f"{raw[start + r][c]!r}"
        )
    return matrix


def rmse(predicted, truth) -> float:
    """Root mean squared error between two equally long vectors."""
    p = np.asarray(predicted, dtype=float)
    z = np.asarray(truth, dtype=float)
    if p.shape != z.shape or p.ndim != 1 or p.size == 0:
        raise InvalidInputError("predicted and truth must be equal-length, non-empty")
    return float(np.sqrt(np.mean((p - z) ** 2)))


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def emit_records(records, path, fmt: str = "csv") -> None:
    """Write records as CSV (fixed header) or JSON lines.

    Floating values are rendered with 9 significant digits; field order is
    fixed, so identical records produce identical bytes.
    """
    if fmt not in ("csv", "jsonl"):
        raise InvalidInputError("format must be 'csv' or 'jsonl'")
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write("rep,round,instance,annotator,label,accepted,rmse,"
                     "regret,discarded,payment\n")
            for r in records:
                fh.write(
                    f"{r.rep},{r.round},{r.instance},{r.annotator},"
                    f"{_fmt(r.label)},{int(r.accepted)},{_fmt(r.rmse)},"
                    f"{_fmt(r.regret)},{r.discarded},{_fmt(r.payment)}\n"
                )
        else:
            for r in records:
                obj = {
                    "rep": r.rep,
                    "round": r.round,
                    "instance": r.instance,
                    "annotator": r.annotator,
                    "label": float(_fmt(r.label)),
                    "accepted": bool(r.accepted),
                    "rmse": float(_fmt(r.rmse)),
                    "regret": float(_fmt(r.regret)),
                    "discarded": r.discarded,
                    "payment": float(_fmt(r.payment)),
                }
                fh.write(json.dumps(obj) + "\n")


def summarize(records):
    """Per-repetition (rep, final rmse, final regret, discarded, paid)."""
    out = []
    for r in records:
        if not out or out[-1][0] != r.rep:
            out.append([r.rep, r.rmse, r.regret, r.discarded, r.payment])
        else:
            out[-1] = [r.rep, r.rmse, r.regret, r.discarded, r.payment]
    return [tuple(row) for row in out]


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


def _pool_labels(rep_seed, profiles, efforts, targets, instance_positions):
    labels = {}
    for pos in instance_positions:
        for j, profile in enumerate(profiles):
            rng = _label_rng(rep_seed, j, int(pos))
            labels[(int(pos), j)] = label_value(
                profile, float(targets[pos]), efforts[j], rng
            )
    return labels


def _choose_scale(config, rep_seed, pool_features, centers, labels, m):
    """Pick the sigmoid scale from ``s_grid`` by held-out validation.

    With a single candidate there is nothing to choose.  Otherwise 20% of the
    labeled instances are held out and each candidate is scored by RMSE of the
    fitted model against the held-out mean crowd label.  ``m`` is the size
    of the annotator population that gave ``labels``.
    """
    if len(config.s_grid) == 1:
        return config.s_grid[0]
    positions = sorted({i for (i, _) in labels})
    rng = np.random.default_rng([rep_seed, _SGRID])
    perm = rng.permutation(len(positions))
    n_val = max(1, len(positions) // 5)
    val_pos = {positions[i] for i in perm[:n_val]}
    train_labels = {k: v for k, v in labels.items() if k[0] not in val_pos}
    if not train_labels:
        return config.s_grid[0]
    val_means = {}
    for (i, _), y in labels.items():
        if i in val_pos:
            val_means.setdefault(i, []).append(y)
    val_idx = sorted(val_means)
    val_target = np.array([np.mean(val_means[i]) for i in val_idx])
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


def _prepare_split(config, data, rep_seed):
    """Seeded split plus normalization; transform comes later (it may need
    labels when the scale is grid-searched)."""
    X, z = data
    n = X.shape[0]
    rng = np.random.default_rng([rep_seed, _SPLIT])
    perm = rng.permutation(n)
    n_test = int(round(n * config.test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    test_idx, pool_idx = perm[:n_test], perm[n_test:]
    pool_raw, pool_z = X[pool_idx], z[pool_idx]
    test_raw, test_z = X[test_idx], z[test_idx]
    pool_norm, params = normalize(pool_raw)
    test_norm = apply_normalization(test_raw, params)
    return pool_idx, pool_norm, pool_z, test_norm, test_z


def _transform_features(config, rep_seed, pool_norm, test_norm, labels, m):
    if config.transform == "linear":
        return pool_norm, test_norm
    d = pool_norm.shape[1]
    centers = fit_centers(pool_norm, d, [rep_seed, _KMEANS])
    s = _choose_scale(config, rep_seed, pool_norm, centers, labels, m)
    spec = TransformSpec(centers, s, "sigmoid")
    return transform(pool_norm, spec), transform(test_norm, spec)


def _make_profiles(config, rep_seed):
    if config.strategy == "single_source":
        return [AnnotatorProfile(id=0,
                                 best_precision=1.0 / _SINGLE_SOURCE_SD**2)]
    return make_annotators(
        config.num_annotators, config.num_good,
        config.interval_good, config.interval_bad,
        seed=[rep_seed, _ANNOT],
    )


def _run_repetition(config, data, rep):
    rep_seed = config.base_seed + rep
    pool_idx, pool_norm, pool_z, test_norm, test_z = _prepare_split(
        config, data, rep_seed
    )
    profiles = _make_profiles(config, rep_seed)
    m = len(profiles)
    efforts = np.array([p.best_precision for p in profiles])
    ledger = bd.RegretLedger.from_precisions(efforts)
    scheme = config.scheme()
    strategy_rng = np.random.default_rng([rep_seed, _STRATEGY])

    n_pool = pool_norm.shape[0]
    seed_count = min(config.seed_pool_size, n_pool)
    seed_positions = list(range(seed_count))
    labels = _pool_labels(rep_seed, profiles, efforts, pool_z, seed_positions)

    pool_phi, test_phi = _transform_features(
        config, rep_seed, pool_norm, test_norm, labels, m
    )
    d = pool_phi.shape[1]
    weight_prior = default_weight_prior(d)
    precision_priors = default_precision_priors(m)

    dataset = CrowdDataset(pool_phi, labels, m)
    weights, precisions, _ = fit_variational(
        dataset, weight_prior, precision_priors,
        tolerance=config.vi_tolerance, max_sweeps=config.initial_sweeps,
    )

    use_bandit = config.strategy == "robust_ucb"
    state = None
    if use_bandit:
        horizon = max(seed_count * m + config.budget, 2)
        state = bd.BanditState(m, config.moment_bound(), horizon=horizon)
        seed_residuals = [
            [(labels[(i, j)] - weights.mean @ pool_phi[i]) ** 2
             for i in seed_positions]
            for j in range(m)
        ]
        bd.initialize_state(state, seed_residuals)

    paid = seed_count * sum(settle(precisions[j], scheme) for j in range(m))
    discarded = state.discarded if use_bandit else 0
    records = [RoundRecord(
        rep, 0, -1, -1, 0.0, True,
        rmse(test_phi @ weights.mean, test_z), 0.0, discarded, paid,
    )]

    unlabeled = list(range(seed_count, n_pool))
    for t in range(1, config.budget + 1):
        if not unlabeled:
            break  # pool exhausted before the budget; stop early
        if config.strategy == "random":
            pos = unlabeled[int(strategy_rng.integers(len(unlabeled)))]
        else:
            pos = select_instance(
                [(p, pool_phi[p]) for p in unlabeled], weights
            )
        if config.strategy == "robust_ucb":
            j = bd.select_annotator(state)
        elif config.strategy == "single_source":
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
        residual_sq = float((y - weights.mean @ pool_phi[pos]) ** 2)
        accepted = True
        if use_bandit:
            bd.record_outcome(state, j, residual_sq)
            accepted = residual_sq <= bd.truncation_threshold(state)
        ledger.record_pull(j)
        paid += settle(precisions[j], scheme)
        unlabeled.remove(pos)

        test_rmse = rmse(test_phi @ weights.mean, test_z)
        records.append(RoundRecord(
            rep, t, int(pool_idx[pos]), j, float(y), accepted, test_rmse,
            bd.regret_seq(ledger), state.discarded if use_bandit else 0, paid,
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
        rep_seed = config.base_seed + rep
        _, pool_norm, pool_z, test_norm, test_z = _prepare_split(
            config, data, rep_seed
        )
        profiles = _make_profiles(config, rep_seed)
        m = len(profiles)
        efforts = np.array([p.best_precision for p in profiles])
        labels = _pool_labels(rep_seed, profiles, efforts, pool_z,
                              range(pool_norm.shape[0]))
        pool_phi, test_phi = _transform_features(
            config, rep_seed, pool_norm, test_norm, labels, m
        )
        dataset = CrowdDataset(pool_phi, labels, m)
        weights, _, _ = fit_variational(
            dataset, default_weight_prior(pool_phi.shape[1]),
            default_precision_priors(m),
            tolerance=config.vi_tolerance, max_sweeps=config.initial_sweeps,
        )
        scores.append(rmse(test_phi @ weights.mean, test_z))
    return scores
