#!/usr/bin/env python3
"""Runs two sets of benchmark runs of one commit and reports, for each
end-to-end metric and workload, whether the sets agree within the bounds
in BENCHMARK.json.

    python3 perfbench/agree.py                  # 2 sets x 10 seeds x all
    python3 perfbench/agree.py --runs 5 --workloads unbatched --sets 1

For every workload and metric it prints each set's median and spread —
the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median.
The sets agree when every spread is within the metric's bound, the
second median is not worse than the first by more than the bound, and
the share of failed operations is identical. A spread above a
third of the bound is flagged as a warning. Set 1 uses seeds 1..runs,
set 2 seeds runs+1..2*runs; runs of all workloads are interleaved. Raw
result lines go to .bench_build/agree/results.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    out_dir = os.path.join(ROOT, ".bench_build", "agree")
    os.makedirs(out_dir, exist_ok=True)
    results = {}  # (set, workload) -> [result]
    with open(os.path.join(out_dir, "results.jsonl"), "a") as log:
        for s in range(args.sets):
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                for w in workloads:
                    r = run_once(w, seed, seconds)
                    results.setdefault((s, w), []).append(r)
                    log.write(json.dumps({"set": s + 1, "workload": w,
                                          "seed": seed, "result": r}) + "\n")
                    log.flush()
                    print("set %d %-10s seed %-3d %s" % (
                        s + 1, w, seed, " ".join(
                            "%s=%.4g" % (k, v["value"])
                            for k, v in sorted(r["metrics"].items()))),
                        flush=True)

    agree = True
    print("\n%-10s %-22s %11s %7s %11s %7s %6s  verdict"
          % ("workload", "metric", "median1", "spread1", "median2",
             "spread2", "bound"))
    for w in workloads:
        sets = [results[(s, w)] for s in range(args.sets)]
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets}
        if len(shares) != 1 or not all(r["correct"] for rs in sets for r in rs):
            agree = False
            print("%-10s failed shares %s, correct %s" % (
                w, sorted(shares), all(r["correct"] for rs in sets for r in rs)))
        for name in sorted(sets[0][0]["metrics"]):
            m = metrics[name]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            errors, warnings = [], []
            if max(spreads) > m["bound"]:
                errors.append("spread above bound")
            elif max(spreads) > m["bound"] / 3:
                warnings.append("spread above bound/3")
            if len(meds) == 2:
                worse = ((meds[1] - meds[0]) / meds[0]
                         if m["better"] == "lower"
                         else (meds[0] - meds[1]) / meds[0])
                if worse > m["bound"]:
                    errors.append("median worse by %.1f%%" % (100 * worse))
            agree = agree and not errors
            print("%-10s %-22s %11.4g %6.1f%% %11s %7s %5.0f%%  %s" % (
                w, name, meds[0], 100 * spreads[0],
                "%.4g" % meds[1] if len(meds) == 2 else "-",
                "%.1f%%" % (100 * spreads[1]) if len(meds) == 2 else "-",
                100 * m["bound"],
                ", ".join(["FAIL: " + e for e in errors] + warnings) or "ok"))
    print("\nsets %s" % ("AGREE" if agree else "DISAGREE"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
