"""crowdreg benchmark: one workload per invocation, closed loop, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload al_ucb --seed 1 --seconds 18 --trace 0

The library is imported from ``src/`` next to this directory.  One op is one
repetition (or, for ``bandit_horizon``, one horizon of pulls); the next op
starts only when the last one has finished.  Each workload is a fixed corpus
of ops, told apart by their ``base_seed``; ``--seed`` sets where in the
corpus the run starts, and every run covers the whole corpus at least once.
Runs with different seeds thus measure the same work in another order: their
spread is the machine's, and the quality guards and the record digest, taken
over one pass of the corpus, are one value per workload.  (With independent
ops per seed, the op-to-op variation of al_ucb alone spread rep_s_p50 by 10%
between seeds.)

Times are CPU seconds of this process, with BLAS pinned to one thread,
scaled to the reference speed (see ``Speed``).  The unscaled CPU and the
wall-clock values are printed beside them, on the ``clocks`` line.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs every op twice, untraced and then traced with
the wrappers of ``tracer.py``, and prints the per-layer metrics plus the
tracing overhead.  Every op's outputs are checked; a failed check counts the
op as failed and makes the command exit with code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 7

# Seconds that calibrate() takes on the reference machine (2-vCPU Intel
# Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) in its fast state.  Timed
# metrics are reported in seconds at that speed; see Speed.
CAL_REF_S = 0.025

# The clocks every op and set-up sample is timed on; the metrics use the
# last, the others are printed beside them.
CLOCKS = ("wall", "cpu", "scaled")


def base_seed(seed: int, index: int, corpus: int) -> int:
    """The ``base_seed`` of op ``index``: entry ``(seed + index) mod corpus``
    of the workload's corpus of ops."""
    return (seed + index) % corpus


def import_crowdreg():
    src = ROOT / "src"
    if not (src / "crowdreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crowdreg package under {src}")
    sys.path.insert(0, str(src))
    import crowdreg
    import crowdreg.harness
    return crowdreg


@dataclass
class OpResult:
    """What one op produced, summarized after its timer stopped."""

    units: int
    rmse: float
    regret: float
    paid: float
    digests: tuple[str, str] | None = None
    problems: list[str] = field(default_factory=list)


def _finite(name, value, problems):
    if not math.isfinite(value):
        problems.append(f"{name} is not finite: {value!r}")


# ---------------------------------------------------------------------------
# Protocol workloads: al_ucb and al_large_pool.


def _protocol_op(cr, inputs, seed):
    records = cr.harness.run_experiment(replace(inputs["config"],
                                                base_seed=seed))
    for fmt in RECORD_FORMATS:
        cr.harness.emit_records(records, inputs["records_path"][fmt], fmt)
    return records


def _protocol_summary(cr, inputs, seed, records):
    digests = tuple(
        hashlib.sha256(inputs["records_path"][fmt].read_bytes()).hexdigest()
        for fmt in RECORD_FORMATS)
    budget = inputs["config"].budget
    problems = []
    if len(records) != budget + 1:
        problems.append(f"{len(records)} records, expected {budget + 1}")
    if [r.round for r in records] != list(range(len(records))):
        problems.append("record rounds are not 0, 1, 2, ...")
    for r in records:
        for name in ("rmse", "regret", "payment"):
            _finite(f"round {r.round} {name}", getattr(r, name), problems)
    for name in ("regret", "payment"):
        values = [getattr(r, name) for r in records]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{name} decreases between rounds")
    last = records[-1]
    return OpResult(len(records) - 1, last.rmse, last.regret, last.payment,
                    digests, problems)


def _al_ucb_setup(cr, tiny):
    config = cr.ExperimentConfig(
        strategy="robust_ucb", transform="linear", num_annotators=50,
        num_good=40, budget=100, seed_pool_size=10, repetitions=1,
    )
    if tiny:
        config = replace(config, num_annotators=10, num_good=8, budget=5)
    return {"config": config}


def _al_large_pool_setup(cr, tiny):
    import numpy as np

    n, d, budget, m, good = (400, 4, 5, 5, 4) if tiny else (10000, 16, 100, 20, 16)
    X, y = cr.harness.synthetic_housing_like(0, n=n, d=d)
    csv_path = WORK / f"large_pool-{os.getpid()}.csv"
    np.savetxt(csv_path, np.column_stack([X, y]), fmt="%.17g", delimiter=",")
    # The default payment band [0.25, 100] pays nothing here: the sigmoid
    # model's residuals put every estimated precision near 0.01-0.05.  This
    # band brackets them, so `paid` follows the refits' estimates.
    config = cr.ExperimentConfig(
        data_path=str(csv_path), transform="sigmoid", s_grid=(0.5, 1.0, 2.0),
        strategy="instance_only", num_annotators=m, num_good=good,
        budget=budget, beta_lower=0.001, beta_upper=0.1, repetitions=1,
    )
    return {"config": config, "files": [csv_path]}


# ---------------------------------------------------------------------------
# full_pool: the `crowd-al fit` path.


def _full_pool_setup(cr, tiny):
    import numpy as np

    config = cr.ExperimentConfig(repetitions=1)  # the criterion-09 config
    if tiny:
        config = replace(config, num_annotators=5, num_good=4)
    # full_fit returns only the test RMSE.  Its regret and payment are
    # constants of the config, not figures of the program: those of the plan
    # it executes, every annotator labeling every pool instance once, for a
    # population of the config's shape drawn with seed 0 and paid at the
    # true precisions.  Only public calls are used, so a refactor of the
    # harness cannot break them.
    n = cr.harness.synthetic_housing_like()[0].shape[0]
    n_pool = n - min(max(round(n * config.test_fraction), 1), n - 1)
    profiles = cr.make_annotators(config.num_annotators, config.num_good,
                                  config.interval_good, config.interval_bad,
                                  seed=0)
    betas = np.array([p.best_precision for p in profiles])
    ledger = cr.RegretLedger.from_precisions(betas)
    ledger.pulls[:] = n_pool
    return {
        "config": config,
        "labels": n_pool * len(betas),
        "regret": cr.regret_seq(ledger),
        "paid": n_pool * float(np.sum(cr.payment(betas, config.scheme()))),
    }


def _full_pool_op(cr, inputs, seed):
    return cr.harness.full_fit(replace(inputs["config"], base_seed=seed))


def _full_pool_summary(cr, inputs, seed, scores):
    problems = []
    if len(scores) != 1:
        problems.append(f"{len(scores)} scores, expected 1")
    _finite("rmse", scores[0], problems)
    return OpResult(inputs["labels"], scores[0], inputs["regret"],
                    inputs["paid"], None, problems)


def _full_pool_check(cr, inputs, results):
    mean = statistics.fmean(r.rmse for r in results)
    if not 4.0 <= mean <= 5.6:
        return [f"mean full-pool RMSE {mean:.4f} outside [4.0, 5.6]"]
    return []


# ---------------------------------------------------------------------------
# bandit_horizon: the bandit alone, over the criterion-06 population.


def _bandit_setup(cr, tiny):
    import numpy as np

    profiles = cr.make_annotators(5, 3, (0.1, 1.0), (1.0, 2.0), seed=123)
    betas = np.array([p.best_precision for p in profiles])
    return {
        "betas": betas,
        "sds": 1.0 / np.sqrt(betas),
        "u": 3.0 * 2.0**4,
        "horizon": 500 if tiny else 20_000,
        # Pay every pull at the annotator's true precision under the
        # protocol's default payment band.
        "pay": cr.payment(betas, cr.ExperimentConfig().scheme()),
    }


def _bandit_op(cr, inputs, seed):
    import numpy as np

    bd = cr.bandit
    sds, horizon = inputs["sds"], inputs["horizon"]
    state = bd.BanditState(len(sds), inputs["u"], horizon=horizon)
    ledger = bd.RegretLedger.from_precisions(inputs["betas"])
    rng = np.random.default_rng(seed)
    total_sq = 0.0
    for _ in range(horizon):
        j = bd.select_annotator(state)
        residual = rng.normal(0.0, sds[j])
        residual_sq = residual * residual
        bd.record_outcome(state, j, residual_sq)
        ledger.record_pull(j)
        total_sq += residual_sq
    return ledger, total_sq


def _bandit_summary(cr, inputs, seed, payload):
    ledger, total_sq = payload
    horizon = inputs["horizon"]
    problems = []
    if int(ledger.pulls.sum()) != horizon:
        problems.append(f"{int(ledger.pulls.sum())} pulls, expected {horizon}")
    regret = cr.regret_seq(ledger)
    label_rmse = math.sqrt(total_sq / horizon)
    _finite("regret", regret, problems)
    _finite("label rmse", label_rmse, problems)
    paid = float(ledger.pulls @ inputs["pay"])
    return OpResult(horizon, label_rmse, regret, paid, None, problems)


def _bandit_check(cr, inputs, results):
    gaps = 1.0 / inputs["betas"] - (1.0 / inputs["betas"]).min()
    bound = cr.regret_bound(gaps, inputs["u"], inputs["horizon"])
    mean = statistics.fmean(r.regret for r in results)
    if not mean <= bound:
        return [f"mean regret {mean:.1f} above regret_bound {bound:.1f}"]
    return []


@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    summary: object
    check: object = None
    # Ops in the corpus.  The quality guards (final_rmse, final_regret,
    # paid) and the record digest cover one pass over it.  Every run makes
    # at least one pass, so a corpus of 21 or more ops gives rep_s_tail at
    # least 10 runs beyond its percentile.
    corpus: int = 10


WORKLOADS = {
    "al_ucb": Workload(_al_ucb_setup, _protocol_op, _protocol_summary,
                       corpus=10),
    "al_large_pool": Workload(_al_large_pool_setup, _protocol_op,
                              _protocol_summary, corpus=8),
    "full_pool": Workload(_full_pool_setup, _full_pool_op, _full_pool_summary,
                          _full_pool_check, corpus=32),
    "bandit_horizon": Workload(_bandit_setup, _bandit_op, _bandit_summary,
                               _bandit_check, corpus=24),
}


# ---------------------------------------------------------------------------
# Measurement.


RECORD_FORMATS = ("csv", "jsonl")


def setup_workload(cr, name, tiny):
    inputs = WORKLOADS[name].setup(cr, tiny)
    inputs["records_path"] = {fmt: WORK / f"records-{os.getpid()}.{fmt}"
                              for fmt in RECORD_FORMATS}
    return inputs


def cleanup(inputs):
    paths = list(inputs.get("files", [])) + list(inputs["records_path"].values())
    for path in paths:
        path.unlink(missing_ok=True)


def own_cpu_seconds() -> float:
    """User plus system CPU seconds of this process since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> tuple[float, float]:
    """Wall and CPU seconds from spawning a fresh interpreter to its first op
    being ready; the CPU seconds are the child's own, reported by it."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, float(cpu)


def calibrate() -> float:
    """CPU seconds of a fixed mix of interpreter work and small numpy and
    scipy calls, the mix the library's ops spend their time in."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    matrix, rhs, x = np.eye(12) * 3.0 + 0.1, np.ones(12), np.arange(50.0)
    start = time.process_time()
    total = 0.0
    for k in range(800):
        total += float(np.sqrt(x * k).sum())
        total += float(cho_solve(cho_factor(matrix), rhs)[0])
        for j in range(20):
            total += j * 0.5
    return time.process_time() - start


class Speed:
    """Scales CPU seconds to seconds at the reference speed.

    On a shared machine two things stretch wall time by up to half for
    seconds at a time: the host runs another guest on this vCPU (steal),
    and neighbours slow the core this vCPU runs on.  CPU time leaves out
    the first.  For the second, a calibration run between consecutive ops
    measures the speed on either side of each op, and an op's CPU time is
    scaled by ``CAL_REF_S`` over the mean of the two.  A change to the
    program still shows 1:1 in the scaled time.
    """

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        """Scale factor for whatever ran since the previous call."""
        now = calibrate()
        factor = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def run_op(cr, name, inputs, seed, tracer=None, index=0):
    """Time one op (wall and CPU seconds), traced when a tracer is given;
    summarize and check it after the timer stops and the wrappers are gone."""
    workload = WORKLOADS[name]
    if tracer is not None:
        tracer.install()
        tracer.begin_op(index)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        payload = workload.op(cr, inputs, seed)
    except Exception:
        traceback.print_exc()
        payload = None
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer is not None:
            tracer.end_op()
            tracer.uninstall()
    if payload is None:
        return wall, cpu, None
    try:
        return wall, cpu, workload.summary(cr, inputs, seed, payload)
    except Exception:
        traceback.print_exc()
        return wall, cpu, None


def tail(samples):
    """(value, percentile, n) at the highest percentile with >= 10 samples
    beyond it.  Below 21 samples that percentile would fall under the
    median, so the median (p50) is given instead."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n


class Run:
    """Counts, timings and problems of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ok = []  # (index, seconds on each of CLOCKS, OpResult) of passed ops

    def record(self, index, label, times, result, extra=()):
        print(f"op {index} {label} " + ", ".join(
            f"{t:.6f} s {clock}" for clock, t in zip(CLOCKS, times)))
        self.attempted += 1
        problems = ["raised"] if result is None else result.problems + list(extra)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index} ({label}): {p}" for p in problems)
            return False
        self.ok.append((index, times, result))
        return True


def measure(cr, args, inputs, tracer=None, probe=None):
    """Closed loop of ops for ``--seconds`` and at least one corpus pass.

    A warm-up op (index 0) runs first, untimed; the timed loop starts again at
    index 0, and its record digests must match the warm-up's.  With a tracer,
    every op runs untraced and then traced, and the two must agree; the
    returned pairs hold both CPU timings.  With a probe, set-up is timed
    ``SETUP_PROBES`` times, spread evenly over the run between ops, so that
    the set-up median sees the same machine states as the ops; each sample
    holds the seconds on each of ``CLOCKS``.
    """
    workload = WORKLOADS[args.workload]
    run = Run()
    pairs = []
    setup_samples = []
    probes = SETUP_PROBES if probe is not None else 0
    corpus = workload.corpus
    *_, warm = run_op(cr, args.workload, inputs, base_seed(args.seed, 0, corpus))
    min_ops = 2 if tracer is not None or args.tiny else corpus
    speed = Speed()
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < args.seconds:
        if len(setup_samples) < probes and (
                time.perf_counter() - start
                >= len(setup_samples) * args.seconds / probes):
            wall, cpu = probe()
            setup_samples.append((wall, cpu, cpu * speed.scale()))
        seed = base_seed(args.seed, index, corpus)
        wall, cpu, result = run_op(cr, args.workload, inputs, seed)
        extra = []
        if index == 0 and result is not None and (
                warm is None or warm.digests != result.digests):
            extra.append("records differ from the warm-up run of the same op")
        passed = run.record(index, "untraced", (wall, cpu, cpu * speed.scale()),
                            result, extra)
        if tracer is not None:
            t_wall, t_cpu, t_result = run_op(cr, args.workload, inputs, seed,
                                             tracer, index)
            extra = []
            if (t_result is not None and result is not None
                    and t_result.digests != result.digests):
                extra.append("traced records differ from untraced ones")
            if run.record(index, "traced", (t_wall, t_cpu, t_cpu * speed.scale()),
                          t_result, extra) and passed:
                pairs.append((cpu, t_cpu))
        index += 1
    while len(setup_samples) < probes:
        wall, cpu = probe()
        setup_samples.append((wall, cpu, cpu * speed.scale()))
    if workload.check is not None and run.ok:
        for problem in workload.check(cr, inputs, [r for *_, r in run.ok]):
            run.problems.append(problem)
            run.failed = run.attempted
    return run, pairs, setup_samples


# failed_ratio reads 0 on a healthy run, so it cannot carry a relative
# bound; the result line carries ok_ratio = 1 - failed_ratio instead.
PRINTED_ONLY = ("failed_ratio",)


TIMED = ("setup_s", "rounds_per_s", "rep_s_p50", "rep_s_tail")


def timings(run, setup_samples, seed, corpus, clock):
    """The TIMED metrics on one of ``CLOCKS``, and (corpus ops, units,
    tail percentile, runs).

    For the rate and the median every corpus op counts once, with the mean
    time of its passes, so that the ops a run repeats do not depend on where
    the seed started it.  The tail is taken over every pass, so that an op
    that is slow only now and then still shows in it.
    """
    k = CLOCKS.index(clock)
    passes = {}
    for index, times, result in run.ok:
        entry = passes.setdefault(base_seed(seed, index, corpus),
                                  [result.units])
        entry.append(times[k])
    means = [statistics.fmean(t) for _, *t in passes.values()]
    units = sum(u for u, *_ in passes.values())
    tail_s, pct, n = tail([times[k] for _, times, _ in run.ok])
    values = {
        "setup_s": statistics.median(s[k] for s in setup_samples),
        "rounds_per_s": units / sum(means),
        "rep_s_p50": statistics.median(means),
        "rep_s_tail": tail_s,
    }
    return values, (len(means), units, pct, n)


def end_to_end(run, setup_samples, seed, corpus):
    """``name -> (value, unit, note)`` for every end-to-end metric; times
    are CPU seconds at the reference speed (see :class:`Speed`)."""
    timed, (ops, units, pct, n) = timings(run, setup_samples, seed, corpus,
                                          "scaled")
    guards = [result for index, _, result in run.ok if index < corpus]
    guarded = f"mean over {len(guards)} corpus ops"
    return {
        "setup_s": (timed["setup_s"], "s",
                    f"median of {len(setup_samples)} fresh interpreters"),
        "rounds_per_s": (timed["rounds_per_s"], "1/s", f"{units} units"),
        "rep_s_p50": (timed["rep_s_p50"], "s",
                      f"n={ops} corpus ops, {n} runs"),
        "rep_s_tail": (timed["rep_s_tail"], "s", f"p{pct:.0f}, n={n} runs"),
        "final_rmse": (statistics.fmean(r.rmse for r in guards), "rmse",
                       guarded),
        "final_regret": (statistics.fmean(r.regret for r in guards), "regret",
                         guarded),
        "paid": (statistics.fmean(r.paid for r in guards), "budget", guarded),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "this process"),
        "failed_ratio": (run.failed / run.attempted, "ratio",
                         f"attempted={run.attempted}"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio",
                     "1 - failed_ratio"),
    }


def print_digests(run, seed, corpus):
    """Per-op record digests, and one over the first pass of the corpus in
    corpus order, which does not depend on the seed."""
    first_pass = {}
    for index, _, result in run.ok:
        if result.digests is None:
            continue
        entry = base_seed(seed, index, corpus)
        print(f"records op={index} base_seed={entry} "
              f"csv_sha256={result.digests[0]} jsonl_sha256={result.digests[1]}")
        if index < corpus:
            first_pass[entry] = result.digests
    if first_pass:
        combined = hashlib.sha256()
        for entry in sorted(first_pass):
            combined.update("".join(first_pass[entry]).encode())
        print(f"records_sha256 {combined.hexdigest()} "
              f"({len(first_pass)} corpus ops)")


def environment(cr) -> dict:
    """Versions, BLAS, CPU and source identity of this run."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads[Path(lib).name] = getter()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crowdreg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, whatever the environment says: every timing is CPU
    # seconds, and with the default, one thread per core, a 2-vCPU machine
    # spent twice the CPU time on an al_ucb op for the same wall time.  Set
    # before numpy is first imported, so the BLAS library reads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    WORK.mkdir(exist_ok=True)
    cr = import_crowdreg()
    if args.setup_probe:
        inputs = setup_workload(cr, args.workload, args.tiny)
        print("ready", own_cpu_seconds(), flush=True)
        cleanup(inputs)
        return 0

    print("env", json.dumps(environment(cr), sort_keys=True))
    inputs = setup_workload(cr, args.workload, args.tiny)
    corpus = WORKLOADS[args.workload].corpus
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    probe = None if args.trace else lambda: time_setup(args)
    try:
        run, pairs, setup_samples = measure(cr, args, inputs, tracer, probe)
    finally:
        cleanup(inputs)

    printed = {}
    if tracer is not None:
        if cr.harness.fit_variational is not cr.model.fit_variational:
            run.problems.append("a traced wrapper was left installed")
        for name in tracer.absent:
            print(f"trace target {name}: absent")
        tracer.save(WORK / f"spans-{args.workload}.npz")
        metrics = tracer.metrics()
        overhead = 0.0
        if pairs:
            overhead = statistics.median(t / u for u, t in pairs) - 1
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        print_digests(run, args.seed, corpus)
        printed = {}
        if run.ok:
            printed = end_to_end(run, setup_samples, args.seed, corpus)
            print("clocks", json.dumps({
                clock: timings(run, setup_samples, args.seed, corpus, clock)[0]
                for clock in CLOCKS[:-1]}))
        metrics = {name: (v, u) for name, (v, u, _) in printed.items()
                   if name not in PRINTED_ONLY}

    for name, (value, unit, note) in printed.items():
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
