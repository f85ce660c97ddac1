"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 perfbench/stability.py --seeds 1-10 --out set1.json [--workload W ...]
    python3 perfbench/stability.py --compare set1.json set2.json

The first form runs ``run.py`` once per workload and seed, with the run
length from ``BENCHMARK.json``, and reports for every metric the distance
between the first and third quartiles of its values as a share of their
median, next to a third of the metric's bound; the timed metrics' spreads on
the unscaled CPU and the wall clock (the ``clocks`` line) are reported
beside them.  The second form checks that each metric's median in the second
set is not worse than in the first by more than its bound, and that the
record digests match seed by seed; it prints the shift of the unscaled
medians too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines
                   if line.startswith("records_sha256 ")), None)
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    clocks = next(json.loads(line[7:]) for line in lines
                  if line.startswith("clocks "))
    return result, digest, env, clocks


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, median


def collect(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"env": None, "workloads": {}}
    for workload in names:
        values, digests, clock_values = {}, {}, {}
        for seed in parse_seeds(args.seeds):
            result, digest, report["env"], clocks = run_once(spec, workload,
                                                             seed)
            digests[str(seed)] = digest
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for clock, timed in clocks.items():
                for name, value in timed.items():
                    clock_values.setdefault(f"{clock}:{name}", []).append(value)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
                  flush=True)
        entry = {"digests": digests, "metrics": {}, "clocks": {}}
        report["workloads"][workload] = entry
        for name, vals in values.items():
            share, median = spread(vals)
            entry["metrics"][name] = {
                "values": vals, "median": median, "spread": share}
            flag = "ok" if share < bounds[name] / 3 else "WIDE"
            print(f"  {workload:15s} {name:13s} median {median:<12.6g} "
                  f"spread {share:.4f}  bound/3 {bounds[name] / 3:.4f}  {flag}")
        for name, vals in clock_values.items():
            share, median = spread(vals)
            entry["clocks"][name] = {
                "values": vals, "median": median, "spread": share}
            print(f"  {workload:15s} {name:18s} median {median:<12.6g} "
                  f"spread {share:.4f}  (unscaled, not gated)")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


def compare(first_path, second_path):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    ok = True
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for name, m in metrics.items():
            ma, mb = a["metrics"][name]["median"], b["metrics"][name]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{workload:15s} {name:13s} {ma:<12.6g} {mb:<12.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) "
                  f"{'ok' if good else 'REGRESSED'}")
        for name, ca in a.get("clocks", {}).items():
            ma, mb = ca["median"], b["clocks"][name]["median"]
            print(f"{workload:15s} {name:18s} {ma:<12.6g} {mb:<12.6g} "
                  f"shift {(mb - ma) / ma:+.4f} (unscaled, not gated)")
        same = a["digests"] == b["digests"]
        ok &= same
        print(f"{workload:15s} record digests {'identical' if same else 'DIFFER'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    collect(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
