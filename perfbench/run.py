#!/usr/bin/env python3
"""Build and run the HABIT benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <dan-build|sar-query> \
        --seed <n> --seconds <s> --trace <0|1>

The first run compiles the repository's main sources together with the
benchmark (an sbt build in this directory) and records the runtime
classpath under .bench_build/. Later runs reuse it until a source file
changes. The measurement itself runs in a fresh JVM started here, so sbt's
own start-up is never measured. The last line of standard output is the
JSON result; this script checks that it names exactly the metrics that
BENCHMARK.json declares for the chosen --trace mode.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build"
CLASSPATH = OUT / "classpath.txt"
STAMP = OUT / "classpath.stamp"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module access Spark needs on Java 17 and later (as spark-submit sets it).
JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the compiled benchmark depends on."""
    roots = [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"]
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file()]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_opts():
    opts = os.environ.get("SBT_OPTS", "").split()
    if not any(o.startswith("-Dsbt.offline") for o in opts):
        opts.append("-Dsbt.offline=true")
    repos = Path.home() / ".sbt" / "repositories"
    if repos.is_file() and not any(o.startswith("-Dsbt.repository.config") for o in opts):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    return " ".join(opts)


def build(src_digest):
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == src_digest:
        return
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, SBT_OPTS=sbt_opts(), COURSIER_MODE="offline")
    try:
        res = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                             cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if res.returncode != 0 or not CLASSPATH.is_file():
        fail("build failed", 3)
    STAMP.write_text(src_digest)


def git_sha():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The result line must hold exactly the declared metrics, as finite numbers."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, " \
               f"extra {sorted(set(got) - set(want))}"
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"metric {name}: {m}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (ROOT / "build.sbt").is_file():
        fail("the repository's sources (src/main/scala, build.sbt) are not in this checkout")
    files = source_files()
    src_digest = digest(files)
    build(src_digest)

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "SPARK_LOCAL_DIRS", "SPARK_CONF_DIR")}
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-Xmn1g", "-XX:+IgnoreUnrecognizedVMOptions",
           *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS],
           "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={OUT / 'tmp'}",
           f"-Dperfbench.out={OUT}",
           f"-Dperfbench.git_sha={git_sha()}",
           f"-Dperfbench.source_sha={src_digest[:16]}",
           "-cp", CLASSPATH.read_text().strip(),
           "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        # Gate failures still print their result line; pass it on, then fail.
        sys.stdout.write(out)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 5)
    problem = check_result(lines[-1], a.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"bad result line: {problem}", 6)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
