#!/usr/bin/env python3
"""Time each codec of the base commit and of the checkout in one JVM.

    python3 tools/bench_layers.py --out BENCH_<n>.json [--base HEAD] [--codecs pFPC,MPC]

Run it from the repository root, after tools/bench_pairs.py, which writes the
file anew: this adds or replaces only its `layers` key. The base commit is
unpacked into .bench_base/ as bench_pairs.py does, and both sides are built
by perfbench's own build (perfbench/run.py). The change's build generates the
`grid` and `pages` corpora once, exactly as perfbench does; then each of
LAUNCHES JVMs loads three builds, each in its own class loader over one
shared parent loader of the dependency jars: the base, a second copy of the
base (the A/A side), and the change (tools/layers/LayerBench.scala). After
WARMUP untimed rounds, in each of ROUNDS rounds every codec of each
workload compresses and then decompresses all the workload's blocks (the 33
`grid` blocks, or the `pages` pages), at one thread, on each build in turn;
the order of the builds rotates from round to round. For each launch, workload, codec and direction, `layers` holds each
build's median and quartiles of the per-round ms, and the median and
quartiles of the per-round ratio to the base of the change (`change_vs_base`)
and of the A/A copy (`aa_vs_base`), with how many rounds each was faster
than the base; `streams_identical` says whether each build's streams equalled
the base's byte for byte.
"""
import argparse
import collections
import glob
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import checkout_base, jvm, sh, summary  # noqa: E402

SOURCE = os.path.join("tools", "layers", "LayerBench.scala")
WORKLOADS = ("grid", "pages")
JVM_OPTS = ["-Xms1g", "-Xmx1g", "-XX:+UseSerialGC"]
# A launch reads some codecs several percent apart from the next with equal
# code (see the A/A rows), so no single launch settles a codec's figure.
LAUNCHES = 3
ROUNDS = 25
WARMUP = 5
LAUNCH_TIMEOUT_S = 1800


def perfbench(root):
    """perfbench/run.py as a module, for its build and its Spark lookup."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(root, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def compile_runner(root, spark_jars, out):
    """Compile LayerBench.scala into `out` with the Scala compiler Spark ships."""
    src = os.path.join(root, SOURCE)
    with open(src, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    stamp = os.path.join(out, "stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return out
    os.makedirs(out, exist_ok=True)
    jar = lambda name: glob.glob(os.path.join(spark_jars, f"{name}-2.13.*.jar"))[0]
    lib = jar("scala-library")
    sh(["java", "-cp", os.pathsep.join([jar("scala-compiler"), lib, jar("scala-reflect")]),
        "scala.tools.nsc.Main", "-d", out, "-cp", lib, src])
    with open(stamp, "w") as fh:
        fh.write(digest)
    return out


def split(classpath, checkout):
    """A perfbench build's class path: its class directories inside `checkout`
    (program and benchmark) and the jars outside it.
    """
    inside = os.path.realpath(checkout) + os.sep
    entries = [e for e in classpath.split(os.pathsep) if e]
    own = [e for e in entries if os.path.realpath(e).startswith(inside)]
    return own, [e for e in entries if e not in own]


def exit_on_failure(proc, what):
    """Exit with the tail of a failed JVM's output."""
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.exit(f"bench_layers: {what} failed")


def launch(java_cp, corpus, args, builds):
    """One runner JVM; returns its timings and stream checks."""
    cmd = ["java", *JVM_OPTS, "-cp", java_cp, "repro.layers.LayerBench", "run", corpus,
           str(ROUNDS), str(WARMUP), args.codecs or "-"]
    cmd += [f"{name}={path}" for name, path in builds]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
    exit_on_failure(proc, "runner")
    times = collections.defaultdict(list)  # (workload, codec, build) -> [(comp ns, decomp ns)]
    streams = {}
    for line in proc.stdout.splitlines():
        f = line.split()
        if f and f[0] == "T":
            times[(f[2], f[3], f[4])].append((int(f[5]), int(f[6])))
        elif f and f[0] == "S":
            streams[(f[1], f[2], f[3])] = f[4] == "same"
    return times, streams


def rows(times, streams):
    """Per workload, codec and direction: each build's ms and the ratios."""
    out = {}
    for (w, c, b) in sorted(times):
        if b != "base":
            continue
        entry = {"streams_identical": {s: streams[(w, c, s)] for s in ("aa", "change")}}
        for d, direction in enumerate(("comp", "decomp")):
            ms = {s: [t[d] / 1e6 for t in times[(w, c, s)]] for s in ("base", "aa", "change")}
            row = {s: summary(v) for s, v in ms.items()}
            for s in ("aa", "change"):
                ratio = [x / y for x, y in zip(ms[s], ms["base"])]
                row[f"{s}_vs_base"] = summary(ratio)
                row[f"{s}_wins"] = f"{sum(r < 1 for r in ratio)}/{len(ratio)}"
            entry[direction] = row
        out.setdefault(w, {})[c] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--codecs", help="comma-separated codec names (default: every codec)")
    args = ap.parse_args()

    root = os.getcwd()
    pb = perfbench(root)
    base, sha = checkout_base(root, args.base)
    env = dict(os.environ, SPARK_HOME=pb.spark_home())
    built = {}
    for name, checkout in (("base", base), ("change", root)):
        out = os.path.join(checkout, ".bench_build")
        os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
        side_env = dict(env, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
        built[name] = split(pb.build(checkout, out, side_env), checkout)
    own, jars = built["change"]
    work = os.path.join(root, ".bench_build", "layers")
    runner = compile_runner(root, os.path.join(env["SPARK_HOME"], "jars"), os.path.join(work, "classes"))

    corpus = os.path.join(work, "corpus.bin")
    proc = subprocess.run(["java", "-Xms2g", "-Xmx2g", f"-Djava.io.tmpdir={os.path.join(root, '.bench_build', 'tmp')}",
                           "-cp", os.pathsep.join([runner, *own, *jars]), "repro.layers.LayerBench", "dump",
                           corpus, os.path.join(work, "run"), *WORKLOADS],
                          capture_output=True, text=True,
                          env=dict(env, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local")))
    exit_on_failure(proc, "corpus dump")

    # the base's classes twice: the A/A copy is a second loader over the same files
    base_classes = os.pathsep.join(built["base"][0])
    builds = [("base", base_classes), ("aa", base_classes), ("change", os.pathsep.join(own))]
    launches = []
    for k in range(LAUNCHES):
        times, streams = launch(os.pathsep.join([runner, *jars]), corpus, args, builds)
        launches.append(rows(times, streams))
        print(f"launch {k + 1}/{LAUNCHES} done", flush=True)

    head = sh(["git", "rev-parse", "HEAD"], cwd=root).strip()
    dirty = sh(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root).strip()
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    report["layers"] = {
        "base": sha, "change": f"checkout of {head}" + (" with uncommitted edits" if dirty else ""),
        "cores": os.cpu_count(), "jvm": jvm(), "jvm_opts": JVM_OPTS,
        "rounds": ROUNDS, "warmup_rounds": WARMUP, "codecs": args.codecs or "all",
        "unit": "ms per round: one codec over all of a workload's blocks, at one thread",
        "launches": launches}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
