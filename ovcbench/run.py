#!/usr/bin/env python3
"""Run one workload of the OVC engine benchmark.

    python3 ovcbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run compiles the engine sources
(src/main/scala) and the benchmark (ovcbench/src) with sbt, offline, and
caches the classpath under ovcbench/target; later runs reuse it while the
sources are unchanged. Each run starts one JVM with a pinned heap and
collector, points every spill at a fresh directory under ovcbench/work, and
removes that directory afterwards. The last line of standard output is the
JSON result; the exit code is non-zero if the benchmark could not run or an
output was wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = [ROOT / "src" / "main" / "scala", BENCH / "src"]
BUILD_FILES = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
CLASSPATH_FILE = BENCH / "target" / "ovcbench-classpath.txt"
WORK = BENCH / "work"
OUT = BENCH / "out"
WORKLOADS = ["intersect_sort", "intersect_hash", "ordered_pipeline", "spark_intersect"]

HEAP = "3g"
GC = "-XX:+UseParallelGC"
JVM_TIMEOUT_S = 165
JVM_START_SAMPLES = 2

# Spark on Java 17 reaches into JDK internals (the list Spark's launcher uses).
SPARK_JVM_FLAGS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
                "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
                "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"ovcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha1()
    files = [p for d in SOURCES for p in sorted(d.rglob("*.scala"))] + BUILD_FILES
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def classpath(digest):
    """Compile with sbt if the sources changed since the last build."""
    if CLASSPATH_FILE.exists():
        cached_digest, cp = CLASSPATH_FILE.read_text().split("\n", 1)
        if cached_digest == digest:
            return cp.strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        opts += " -Dsbt.offline=true"
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = opts.strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    print("ovcbench: building with sbt", file=sys.stderr)
    try:
        r = subprocess.run(cmd, cwd=BENCH, env=env, capture_output=True, text=True, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"sbt failed to run: {e}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines or "ovcbench" not in lines[-1]:
        sys.stderr.write(r.stdout[-8000:] + r.stderr[-8000:])
        fail(f"build failed (sbt exit {r.returncode})")
    cp = lines[-1].strip()
    CLASSPATH_FILE.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH_FILE.write_text(f"{digest}\n{cp}\n")
    return cp


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not SOURCES[0].is_dir():
        fail(f"engine sources not found under {SOURCES[0].relative_to(ROOT)}")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not (Path(spark_home) / "jars").is_dir():
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")

    digest = source_digest()
    cp = classpath(digest)

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spill_dir = run_dir / "spill"
    spark_dir = run_dir / "spark-local"
    spill_dir.mkdir(parents=True)
    spark_dir.mkdir()

    jvm = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", GC,
           f"-Djava.io.tmpdir={spill_dir}", f"-Dovcbench.spark.local.dir={spark_dir}"]
    if args.workload == "spark_intersect":
        jvm += SPARK_JVM_FLAGS
    jvm += ["-cp", cp, "ovcbench.Main"]

    # JVM start is part of set-up time; time a few bare starts so that the
    # benchmark reports a median rather than one sample.
    starts = []
    for _ in range(JVM_START_SAMPLES):
        t0 = time.time_ns()
        r = subprocess.run(jvm + ["--jvm-start"], cwd=run_dir, capture_output=True, text=True, timeout=60)
        starts.append((int(r.stdout.split()[-1]) - t0) / 1e9)

    cmd = jvm + ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--jvm-starts", ",".join(f"{s:.9f}" for s in starts),
                 "--commit", commit(), "--digest", digest, "--out", str(OUT),
                 "--launched-ns", str(time.time_ns())]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"the benchmark JVM did not finish within {JVM_TIMEOUT_S} s")
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail(f"no result (JVM exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
