"""Compare two source trees on the shipped configs: exit codes, verdicts,
residuals and artifacts.

    python3 tools/verdict_sweep.py --base TREE --change TREE

Each TREE is a checkout of this repository. Every config in its
``configs/`` runs through ``python -m liedouble.cli`` with that tree's
``src`` on the path and one BLAS thread, once per seed 0-39 and the
hold-out seed 1009, ``JOBS`` runs at a time. The sweep prints

- every run whose exit code or check verdicts differ between the trees;
- each check's worst residual move, |change - base| / tolerance, over the
  runs where both trees report it;
- how many artifacts are byte-identical between the trees, and each
  (config, artifact) that differs, with the number of seeds at which it
  differs.

It exits 1 on any exit-code or verdict difference, else 0. With the same
tree as base and change it checks that the artifacts are reproducible.
Standard library only.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SEEDS = list(range(40)) + [1009]
JOBS = 2
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def configs(tree):
    folder = os.path.join(tree, "configs")
    return sorted(os.path.join(folder, name) for name in os.listdir(folder)
                  if name.endswith(".json"))


def run_one(tree, config, seed, out):
    """Exit code, {check: (passed, residual, tolerance)} and
    {artifact: sha256} of one CLI run."""
    with open(config) as fh:
        experiment = json.load(fh)["experiment"]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **ONE_THREAD)
    rc = subprocess.run(
        [sys.executable, "-m", "liedouble.cli", experiment, "--config",
         config, "--seed", str(seed), "--output", out, "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    checks, hashes = {}, {}
    report = os.path.join(out, "report.json")
    if os.path.exists(report):
        with open(report) as fh:
            data = json.load(fh)
        checks = {c["name"]: (c["passed"], c["residual"], c["tolerance"])
                  for c in data["checks"]}
        for name in data["artifacts"]:
            with open(os.path.join(out, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return rc, checks, hashes


def sweep(tree, workdir):
    """{(config name, seed): run_one result} over every config and seed."""
    tasks = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for config in configs(tree):
            name = os.path.basename(config)
            for seed in SEEDS:
                out = os.path.join(workdir, "%s-%d" % (name[:-5], seed))
                tasks[name, seed] = pool.submit(run_one, tree, config, seed,
                                                out)
    return {key: task.result() for key, task in tasks.items()}


def compare(base, change):
    """Print the three comparisons; True if no exit code or verdict
    differs."""
    same = True
    worst = {}
    n_art = 0
    differs = collections.Counter()
    for key in sorted(set(base) | set(change)):
        if key not in base or key not in change:
            print("only in %s: %s seed %d"
                  % ("base" if key in base else "change", *key))
            same = False
            continue
        (rc0, c0, h0), (rc1, c1, h1) = base[key], change[key]
        verdicts0 = {n: v[0] for n, v in c0.items()}
        verdicts1 = {n: v[0] for n, v in c1.items()}
        if rc0 != rc1 or verdicts0 != verdicts1:
            same = False
            print("DIFF %s seed %d: exit %d -> %d" % (*key, rc0, rc1))
            for n in sorted(set(verdicts0) | set(verdicts1)):
                if verdicts0.get(n) != verdicts1.get(n):
                    print("    %s: %s -> %s"
                          % (n, verdicts0.get(n), verdicts1.get(n)))
        for n in set(c0) & set(c1):
            move = abs(c1[n][1] - c0[n][1]) / c0[n][2]
            if move != move:  # a non-finite residual on one side
                move = float("inf")
            if n not in worst or move > worst[n][0]:
                worst[n] = (move, key)
        for name in set(h0) | set(h1):
            n_art += 1
            if name not in h0 or h0[name] != h1.get(name):
                differs[key[0][:-len(".json")], name] += 1
    print("\nexit codes and verdicts: %s over %d runs"
          % ("identical" if same else "DIFFERENT", len(base)))
    print("\nworst residual move / tolerance, per check:")
    for n, (move, (config, seed)) in sorted(worst.items(),
                                            key=lambda kv: -kv[1][0]):
        print("  %-42s %.3e  (%s seed %d)" % (n, move, config, seed))
    print("\nartifacts byte-identical: %d of %d"
          % (n_art - sum(differs.values()), n_art))
    for (config, name), seeds in sorted(differs.items()):
        print("  differs: %s/%s at %d seeds" % (config, name, seeds))
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="reference tree")
    parser.add_argument("--change", required=True, help="tree under test")
    args = parser.parse_args(argv)
    results = []
    for tree in (args.base, args.change):
        with tempfile.TemporaryDirectory(prefix="verdict-sweep-") as work:
            results.append(sweep(os.path.abspath(tree), work))
    return 0 if compare(*results) else 1


if __name__ == "__main__":
    sys.exit(main())
