#!/usr/bin/env python3
"""Run one benchmark workload against the checkout this file sits in.

    python3 perfbench/run.py --workload <grid|pages> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The first run builds the program and
the benchmark from source with sbt (perfbench/build.sbt) into .bench_build/;
later runs reuse that build until a source file changes. The run itself is
one JVM (perfbench/src/main/scala/repro/perfbench/Main.scala) whose last
stdout line is the JSON result, relayed here as this script's last line.
The build and the run write only inside the checkout: under .bench_build/,
and sbt's own perfbench/target/ and perfbench/project/target/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
WORKLOADS = ("grid", "pages")
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseSerialGC"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...", 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME or put spark-submit on PATH")
    return home


def source_stamp(root):
    """Digest of every file the build reads, to tell when to rebuild."""
    digest = hashlib.sha256()
    trees = ["src/main", "perfbench/src/main", "perfbench/project/build.properties",
             "perfbench/build.sbt"]
    for tree in trees:
        top = os.path.join(root, tree)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def build(root, out, env):
    """Compile with sbt unless the recorded build matches the sources."""
    stamp_file = os.path.join(out, "stamp")
    cp_file = os.path.join(out, "classpath")
    stamp = source_stamp(root)
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env = dict(env, SBT_OPTS=opts.strip())
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(out, 'sbt-global')}",
           "export Runtime/fullClasspath"]
    code, text = run_group(cmd, BUILD_TIMEOUT_S, cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = [l for l in text.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in lines[-1]:
        sys.stderr.write(text)
        fail(f"build failed (sbt exit {code})", 1)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    # SIGTERM unwinds through run_group, which then kills the child's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("build.sbt", "src/main/scala/repro", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a repository checkout")
    out = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home(),
               SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    classpath = build(root, out, env)

    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={os.path.join(out, 'tmp')}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out, "run")]
    code, text = run_group(cmd, RUN_TIMEOUT_S, cwd=root, env=env,
                           stdout=subprocess.PIPE, text=True)
    lines = text.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        result = None
    if code != 0 or result is None:
        sys.stderr.write(text)
        fail(f"benchmark run failed (exit {code})", 1)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


if __name__ == "__main__":
    main()
