#!/usr/bin/env python3
"""Compare a base commit with the checkout by alternating perfbench runs.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--base HEAD]

Run it from the repository root. The base commit (default HEAD, the parent
of uncommitted work) is unpacked with `git archive` into .bench_base/ and
rebuilt only when the commit changes; the change is the checkout itself,
uncommitted edits included. For every workload in BENCHMARK.json, each of
PAIRS pairs runs the unchanged perfbench/run.py once on each side with the
same seed and length; the side that runs first alternates from pair to pair,
and each pair uses a new seed. One more pair per workload runs the base
against itself: the base from .bench_base/ and a second copy of it in
.bench_aa/, so that this A/A difference shows how far two sides read apart
with equal code. The output holds every run's end-to-end metrics, and per
metric each side's median and quartiles, the change's median relative to
the base's, the quartiles of the change's relative difference within each
pair, the A/A pair's relative difference, and how many pairs the change
won, with the core count and the JVM.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BASE_DIR = ".bench_base"
AA_DIR = ".bench_aa"
# Alternating pairs per workload: a gain is claimed only if the change wins
# at least 9 of 10, so fewer pairs cannot support one.
PAIRS = 10


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, capture_output=True, text=True, **kw).stdout


def checkout_base(root, rev, where=BASE_DIR):
    """Unpack `rev` into `where` unless it already holds that commit."""
    sha = sh(["git", "rev-parse", rev], cwd=root).strip()
    base = os.path.join(root, where)
    stamp = os.path.join(base, ".commit")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return base, sha
    # Keep the base's benchmark build: perfbench rebuilds it when sources differ.
    os.makedirs(base, exist_ok=True)
    for entry in os.listdir(base):
        if entry != ".bench_build":
            subprocess.run(["rm", "-rf", os.path.join(base, entry)], check=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", base], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {sha} failed")
    with open(stamp, "w") as fh:
        fh.write(sha)
    return base, sha


def run(checkout, workload, seed, seconds):
    """One untraced perfbench run; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench_pairs: perfbench run failed in {checkout}")
    return json.loads(proc.stdout.splitlines()[-1])


def record(result, **labels):
    """One run's entry in the output: `labels`, its cell counts and its metrics."""
    return dict(labels, failed=result["failed"], attempted=result["attempted"],
                metrics={m: v["value"] for m, v in result["metrics"].items()})


def show(label, entry):
    print(f"{label}: " + " ".join(f"{m}={v:.4g}" for m, v in entry["metrics"].items()), flush=True)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def jvm():
    out = subprocess.run(["java", "-version"], capture_output=True, text=True)
    return (out.stderr or out.stdout).splitlines()[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--base", default="HEAD")
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base, sha = checkout_base(root, args.base)
    aa, _ = checkout_base(root, args.base, AA_DIR)
    sides = {"base": base, "change": root}

    runs = {w: {"base": [], "change": []} for w in workloads}
    for k in range(PAIRS):
        seed = 101 + k
        order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
        for w in workloads:
            for side in order:
                entry = record(run(sides[side], w, seed, seconds), seed=seed, first=side == order[0])
                runs[w][side].append(entry)
                show(f"pair {k + 1}/{PAIRS} {w} {side}", entry)

    # The A/A pair: the base against its second copy, with a seed no pair used.
    aa_runs = {w: [] for w in workloads}
    for w in workloads:
        for side, checkout in (("base", base), ("aa", aa)):
            entry = record(run(checkout, w, 101 + PAIRS, seconds), side=side)
            aa_runs[w].append(entry)
            show(f"A/A {w} {side}", entry)

    head = sh(["git", "rev-parse", "HEAD"], cwd=root).strip()
    dirty = sh(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root).strip()
    change = f"checkout of {head}" + (" with uncommitted edits" if dirty else "")
    report = {"base": sha, "change": change,
              "cores": os.cpu_count(), "jvm": jvm(), "run_seconds": seconds, "pairs": PAIRS,
              "workloads": {}}
    for w in workloads:
        metrics = {}
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name] for r in runs[w]["base"]]
            c = [r["metrics"][name] for r in runs[w]["change"]]
            wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
            metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                             "base": summary(b), "change": summary(c),
                             "change_vs_base": statistics.median(c) / statistics.median(b) - 1,
                             "pair_change_vs_base": summary([cv / bv - 1 for bv, cv in zip(b, c)]),
                             "aa_vs_base": aa_runs[w][1]["metrics"][name] / aa_runs[w][0]["metrics"][name] - 1,
                             "change_wins": f"{wins}/{len(b)}"}
        report["workloads"][w] = {"metrics": metrics, "runs": runs[w], "aa_runs": aa_runs[w]}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
