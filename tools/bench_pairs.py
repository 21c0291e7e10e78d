"""Compare two source trees on the repository benchmark, in alternating
pairs of runs.

    python3 tools/bench_pairs.py --base TREE --change TREE

Each TREE is a checkout of this repository. For every workload of the
change's ``BENCHMARK.json`` the tool runs each tree's own
``perfbench/run.py --trace 0`` from that tree's root, ``SECONDS`` seconds
a run: one pair of runs per seed of ``SEEDS``, pair k running the base
first when k is even, then one pair at the hold-out seed ``HOLDOUT``. For
each workload and end-to-end metric it prints

- both sides' medians and quartiles over the ``SEEDS`` pairs;
- the pairs the change wins, and the hold-out pair's ratio;
- the ratio of the medians, change over base, and whether the change's
  median is within the metric's ``bound``: at most (1 + bound) times the
  base's for a lower-is-better metric, at least (1 - bound) times it for
  a higher-is-better one.

It also prints every run that exited non-zero, was not correct or had
failed operations. The last line gives the same numbers as one JSON
object. The tool exits 1 if a metric is out of its bound or a run did
not succeed, else 0. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEEDS = list(range(PAIRS))
HOLDOUT = 1009
SECONDS = 30  # BENCHMARK.json's run_seconds


def run_one(tree, workload, seed):
    """The result line of one benchmark run, or {"exit": code} when the
    run printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode}
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def run_pairs(base, change, workload):
    """{"base": [...], "change": [...]}, one run per seed of SEEDS and then
    HOLDOUT on each side, in the order of the seeds."""
    runs = {"base": [], "change": []}
    for k, seed in enumerate(SEEDS + [HOLDOUT]):
        order = [("base", base), ("change", change)]
        for side, tree in order if k % 2 == 0 else order[::-1]:
            print("# %s seed %d %s" % (workload, seed, side), file=sys.stderr,
                  flush=True)
            runs[side].append(dict(run_one(tree, workload, seed), seed=seed))
    return runs


def quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4,
                                                      method="inclusive")]


def summarise(runs, metric, better, bound):
    """The comparison of one metric over the pairs where both runs
    report it."""
    def values(first, last):
        return [(b["metrics"][metric], c["metrics"][metric])
                for b, c in zip(runs["base"][first:last],
                                runs["change"][first:last])
                if metric in b.get("metrics", {})
                and metric in c.get("metrics", {})]

    pairs, holdout = values(0, PAIRS), values(PAIRS, None)
    if len(pairs) < 2:
        return None
    base, change = zip(*pairs)
    ratio = statistics.median(change) / statistics.median(base)
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    q = quartiles(base)
    return {"better": better, "bound": bound, "pairs": len(pairs),
            "change_wins": sum(c < b if better == "lower" else c > b
                               for b, c in pairs),
            "base_median": q[1], "change_median": quartiles(change)[1],
            "base_quartiles": q, "change_quartiles": quartiles(change),
            "base_iqr": round(q[2] - q[0], 6),
            "ratio_of_medians": round(ratio, 4),
            "median_worse_by": round(worse_by, 4),
            "within_bound": worse_by <= bound,
            "ratios_per_pair": [round(c / b, 3) if b else None
                                for b, c in pairs],
            "holdout_ratio": round(holdout[0][1] / holdout[0][0], 3)
            if holdout and holdout[0][0] else None}


def bad_runs(runs):
    return ["%s seed %d: %s" % (side, r["seed"], "exit %d" % r["exit"]
                                if "exit" in r else "correct %s, failed %d "
                                "of %d" % (r["correct"], r["failed"],
                                           r["attempted"]))
            for side in ("base", "change") for r in runs[side]
            if "exit" in r or not r["correct"] or r["failed"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="reference tree")
    parser.add_argument("--change", required=True, help="tree under test")
    args = parser.parse_args(argv)
    base, change = (os.path.abspath(t) for t in (args.base, args.change))
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = {"command": "python3 perfbench/run.py --workload W --seed S "
                         "--seconds %d --trace 0" % SECONDS,
              "seeds": SEEDS, "holdout": HOLDOUT, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = run_pairs(base, change, workload)
        metrics = {}
        for m in spec["end_to_end"]:
            s = summarise(runs, m["name"], m["better"], m["bound"])
            if s is not None:
                metrics[m["name"]] = s
        bad = bad_runs(runs)
        ok = ok and not bad and all(s["within_bound"]
                                    for s in metrics.values())
        result["workloads"][workload] = {"metrics": metrics, "bad_runs": bad,
                                         "runs": runs}
        print("%s" % workload)
        for name, s in metrics.items():
            print("  %-13s base %12.6g [%.6g, %.6g]  change %12.6g "
                  "[%.6g, %.6g]  wins %d/%d  x%.4f  hold-out x%s  %s"
                  % (name, s["base_median"], s["base_quartiles"][0],
                     s["base_quartiles"][2], s["change_median"],
                     s["change_quartiles"][0], s["change_quartiles"][2],
                     s["change_wins"], s["pairs"], s["ratio_of_medians"],
                     s["holdout_ratio"],
                     "within bound" if s["within_bound"]
                     else "OUT OF BOUND %g" % s["bound"]))
        for line in bad:
            print("  run not successful: %s" % line)
    result["all_within_bounds_and_successful"] = ok
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
