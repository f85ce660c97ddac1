"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints one
pass line (visible with ``pytest -s``).  The heavier bandit and protocol runs
are shared through module-scoped fixtures so the suite stays within its time
budget.
"""

import math

import numpy as np
import pytest

from crowdreg import (
    BanditState,
    CostFunction,
    CrowdDataset,
    ExperimentConfig,
    PaymentScheme,
    PrecisionPosterior,
    RegretLedger,
    WeightPosterior,
    AnnotatorProfile,
    default_precision_priors,
    default_weight_prior,
    det_shrinkage,
    emit_records,
    error_contraction_bounds,
    fit_variational,
    full_fit,
    make_annotators,
    optimal_effort,
    record_outcome,
    regret_bound,
    regret_seq,
    run_experiment,
    select_annotator,
    summarize,
    truncated_mean,
    utility,
)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS  {detail}")


def test_criterion_01_determinant_lemma_identity():
    """1000 random SPD matrices (d <= 10): rank-one shrinkage matches the
    dense determinant ratio to 1e-9 relative."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        A = rng.normal(size=(d, d))
        prec = A @ A.T + 0.1 * np.eye(d)
        post = WeightPosterior(rng.normal(size=d), prec)
        x = rng.normal(size=d)
        beta = float(rng.uniform(0.05, 10.0))
        shrink = det_shrinkage(post, x, beta)
        dense = (np.linalg.det(prec)
                 / np.linalg.det(prec + beta * np.outer(x, x)))
        rel = abs(shrink - dense) / abs(dense)
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(1, f"worst relative error {worst:.2e} over 1000 matrices")


def test_criterion_02_conjugacy_oracle():
    """Single annotator with pinned precision: the variational weight factor
    equals the closed-form Gaussian posterior to 1e-8."""
    rng = np.random.default_rng(3)
    d, beta, n = 3, 2.5, 40
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + rng.normal(0, 1 / np.sqrt(beta), n)
    ds = CrowdDataset(X, np.arange(n), np.zeros(n, dtype=int), y, 1)
    pinned = PrecisionPosterior([1e12 * beta], [1e12])
    weights, _, fit = fit_variational(ds, default_weight_prior(d), pinned)
    lam = np.eye(d) + beta * X.T @ X
    mu = np.linalg.solve(lam, beta * X.T @ y)
    mu_err = np.abs(weights.mean - mu).max()
    assert fit.converged
    assert mu_err <= 1e-8
    assert np.abs(weights.precision - lam).max() <= 1e-8 * np.abs(lam).max()
    report(2, f"max posterior-mean deviation {mu_err:.2e}")


def test_criterion_03_estimator_consistency():
    """Mean weight error over 10 seeds shrinks with sample size and is at
    most 0.1 by n = 2000 (d = 5, three annotators)."""
    noise_sds = [0.3, 0.6, 1.0]
    errs = {100: [], 2000: []}
    for seed in range(10):
        rng = np.random.default_rng([seed, 11])
        w = rng.normal(size=5)
        for n in errs:
            X = rng.normal(size=(n, 5))
            rows = np.arange(n)
            values = [X[i] @ w + rng.normal(0, noise_sds[i % 3])
                      for i in rows]
            ds = CrowdDataset(X, rows, rows % 3, values, 3)
            post, _, _ = fit_variational(ds, default_weight_prior(5),
                                         default_precision_priors(3))
            errs[n].append(np.linalg.norm(post.mean - w))
    small, large = np.mean(errs[100]), np.mean(errs[2000])
    assert large <= 0.1
    assert large < small
    report(3, f"mean error {small:.4f} at n=100 -> {large:.4f} at n=2000")


def test_criterion_04_error_contraction_monte_carlo():
    """2000 label redraws: the estimated contraction of the expected
    posterior error stays inside the predicted sandwich."""
    rng = np.random.default_rng(7)
    d, n0, beta0 = 4, 25, 2.0
    w_true = rng.normal(size=d)
    X0 = rng.normal(size=(n0, d))
    y0 = X0 @ w_true + rng.normal(0, 1 / np.sqrt(beta0), n0)
    prec = np.eye(d) + beta0 * X0.T @ X0
    mu = np.linalg.solve(prec, beta0 * X0.T @ y0)
    post = WeightPosterior(mu, prec)
    x_new = rng.normal(size=d)
    beta_new = 3.0
    lower, upper = error_contraction_bounds(post, x_new, beta_new)

    new_prec = prec + beta_new * np.outer(x_new, x_new)
    base = np.linalg.solve(new_prec, prec @ mu)
    gain = beta_new * np.linalg.solve(new_prec, x_new)
    n_draws = 2000
    draws = w_true @ x_new + rng.normal(0, 1 / np.sqrt(beta_new), n_draws)
    estimate = base + gain * draws.mean()
    old_err = np.linalg.norm(mu - w_true)
    ratio = np.linalg.norm(estimate - w_true) / old_err
    mcerr = np.linalg.norm(gain) / np.sqrt(beta_new) / np.sqrt(n_draws) / old_err
    assert lower - 3 * mcerr <= ratio <= upper + 3 * mcerr
    report(4, f"ratio {ratio:.4f} within [{lower - 3 * mcerr:.4f}, "
              f"{upper + 3 * mcerr:.4f}]")


def test_criterion_05_truncated_mean_concentration():
    """At delta=0.05 with n=200 samples, the truncated mean overshoots the
    one-sided concentration envelope in at most 7% of 1000 trials."""
    u, delta, n, trials = 3.0, 0.05, 200, 1000
    threshold = math.sqrt(u * n / math.log(1 / delta))
    envelope = -1.0 + 4.0 * math.sqrt(u * math.log(1 / delta) / n)
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(trials):
        rewards = -(rng.normal(0.0, 1.0, n) ** 2)
        mean, _ = truncated_mean(rewards, threshold)
        violations += mean > envelope
    rate = violations / trials
    assert rate <= 0.07
    report(5, f"violation rate {rate:.3f} (limit 0.07)")


@pytest.fixture(scope="module")
def bandit_runs():
    """Twenty seeded 5000-round selection runs over a fixed population of
    five annotators drawn from the two quality bands."""
    profiles = make_annotators(5, 3, (0.1, 1.0), (1.0, 2.0), seed=123)
    betas = np.array([p.best_precision for p in profiles])
    sds = 1.0 / np.sqrt(betas)
    gaps = 1.0 / betas - (1.0 / betas).min()
    u = 3.0 * 2.0**4
    horizon = 5000
    regrets_500, regrets_final, discards = [], [], []
    for seed in range(20):
        rng = np.random.default_rng([seed, 99])
        state = BanditState(5, u, horizon=horizon)
        ledger = RegretLedger.from_precisions(betas)
        checkpoint = None
        for t in range(1, horizon + 1):
            j = select_annotator(state)
            residual = rng.normal(0.0, sds[j])
            record_outcome(state, j, residual * residual)
            ledger.record_pull(j)
            if t == 500:
                checkpoint = regret_seq(ledger)
        regrets_500.append(checkpoint)
        regrets_final.append(regret_seq(ledger))
        discards.append(state.discarded)
    return gaps, u, horizon, regrets_500, regrets_final, discards


def test_criterion_06_regret_bound_and_sublinearity(bandit_runs):
    """Mean realized regret over 20 seeds stays below the logarithmic
    ceiling, and the per-round rate falls from t=500 to t=5000."""
    gaps, u, horizon, regrets_500, regrets_final, _ = bandit_runs
    mean_final = float(np.mean(regrets_final))
    mean_500 = float(np.mean(regrets_500))
    ceiling = regret_bound(gaps, u, horizon)
    assert mean_final <= ceiling
    assert mean_final / horizon < mean_500 / 500
    report(6, f"regret {mean_final:.0f} <= bound {ceiling:.0f}; "
              f"rate {mean_final / horizon:.3f} < {mean_500 / 500:.3f}")


def test_criterion_07_discard_bound(bandit_runs):
    """Mean discarded samples at T=5000 stay below 4 (log T)^2."""
    *_, discards = bandit_runs
    limit = 4.0 * math.log(5000) ** 2
    mean_discards = float(np.mean(discards))
    assert mean_discards <= limit
    report(7, f"mean discards {mean_discards:.1f} <= {limit:.1f}")


@pytest.fixture(scope="module")
def strategy_runs():
    """Budget-100 protocol runs, 10 repetitions each, for the three crowd
    strategies on the built-in dataset (no data file in the sandbox)."""
    results = {}
    for strategy in ("robust_ucb", "instance_only", "random"):
        cfg = ExperimentConfig(strategy=strategy, budget=100, repetitions=10,
                               num_annotators=50, num_good=40, base_seed=3)
        summary = summarize(run_experiment(cfg))
        results[strategy] = (
            float(np.mean([row[1] for row in summary])),
            float(np.mean([row[2] for row in summary])),
        )
    return results


def test_criterion_08_baseline_ordering(strategy_runs):
    """Informed annotator selection beats random annotators, which in turn
    never beats fully random procurement, in both final RMSE and regret."""
    rmse_chain = [strategy_runs[s][0]
                  for s in ("robust_ucb", "instance_only", "random")]
    regret_chain = [strategy_runs[s][1]
                    for s in ("robust_ucb", "instance_only", "random")]
    assert rmse_chain[0] <= rmse_chain[1] <= rmse_chain[2]
    assert regret_chain[0] < regret_chain[1] < regret_chain[2]
    report(8, "rmse ({:.3f} <= {:.3f} <= {:.3f}); regret "
              "({:.1f} < {:.1f} < {:.1f})".format(*rmse_chain, *regret_chain))


def test_criterion_09_full_pool_rmse_bracket():
    """Full-pool fit over 10 splits lands in the [4.0, 5.6] bracket."""
    cfg = ExperimentConfig(repetitions=10)
    scores = full_fit(cfg)
    mean_rmse = float(np.mean(scores))
    assert 4.0 <= mean_rmse <= 5.6
    report(9, f"mean full-pool RMSE {mean_rmse:.4f} in [4.0, 5.6]")


def test_criterion_10_mechanism_audit():
    """Across 100 random schemes and the three cost families: participants
    never lose money and always work above the zero-pay band; overpriced
    costs lead to non-participation."""
    rng = np.random.default_rng(314)
    participants = 0
    refusals = 0
    for _ in range(100):
        lower = float(rng.uniform(0.2, 2.0))
        upper = lower + float(rng.uniform(0.5, 5.0))
        scheme = PaymentScheme(float(rng.uniform(1.0, 20.0)), lower, upper)
        families = {
            "overpriced": CostFunction("linear", (2.0 * scheme.budget / lower,)),
            "quadratic": CostFunction("quadratic",
                                      (scheme.budget / (2 * upper**2),)),
            "threshold": CostFunction("threshold",
                                      (0.05 * scheme.budget / upper, 0.1, upper)),
        }
        for name, cost in families.items():
            profile = AnnotatorProfile(best_precision=2.0 * upper, cost=cost)
            effort, joined = optimal_effort(profile, scheme)
            if name == "overpriced":
                assert not joined and effort == 0.0
                refusals += 1
            if joined:
                assert utility(effort, cost, scheme) >= 0
                assert effort > scheme.beta_lower
                participants += 1
    assert refusals == 100
    assert participants >= 100
    report(10, f"{participants} participations audited, {refusals} refusals")


def test_criterion_11_byte_identical_reruns(tmp_path):
    """Identical configuration and seed produce byte-identical record files
    in both output formats."""
    cfg = ExperimentConfig(strategy="robust_ucb", budget=25, repetitions=2,
                           num_annotators=8, num_good=6, base_seed=5)
    for fmt in ("csv", "jsonl"):
        first = tmp_path / f"a.{fmt}"
        second = tmp_path / f"b.{fmt}"
        emit_records(run_experiment(cfg), first, fmt)
        emit_records(run_experiment(cfg), second, fmt)
        assert first.read_bytes() == second.read_bytes()
    report(11, "csv and jsonl reruns byte-identical")
