#!/usr/bin/env python3
"""Runs one workload of the OnlineSTL benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds the program's sources
and the benchmark with sbt into .bench_build/perfbench and reuses the build
while the sources are unchanged. The benchmark itself runs in one JVM; its
last line of standard output is one JSON object with the result.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("fleet-hourly", "weekly-10min", "stream-scrape")
HEAP = "2g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    inputs = [PROGRAM_SRC, os.path.join(BENCH, "src"),
              os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in inputs:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def build(digest):
    """Compiles with sbt unless the stamp says this source digest is built;
    returns the runtime classpath."""
    stamp = os.path.join(BUILD, "build.stamp")
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read().strip() == digest:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    submit = shutil.which("spark-submit")
    if "SPARK_HOME" not in env and submit:
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.abspath(submit)))
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    # A stale incremental build can fail on a changed classpath; start clean.
    shutil.rmtree(BUILD, ignore_errors=True)
    t0 = time.time()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-6000:] + proc.stderr[-3000:])
        fail(f"build failed (sbt exit {proc.returncode})", 3)
    cp = lines[-1].strip()
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        fail(f"could not read the classpath from sbt's output: {cp[:200]}", 3)
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp, "w") as f:
        f.write(digest)
    print(f"[perfbench] built in {time.time() - t0:.1f} s", flush=True)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not os.path.isfile(os.path.join(PROGRAM_SRC, "repro", "streaming", "OnlineSTLStreaming.scala")):
        fail("run from the repository root: the program's sources (src/main/scala) are not here", 2)
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH", 2)

    digest = source_digest()
    cp = build(digest)
    print(f"[perfbench] git_sha={git_sha()} source_digest={digest[:16]}", flush=True)

    work = os.path.join(ROOT, ".bench_build", f"perfbench-run-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={work}/tmp"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--work", work])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.strip():
                last = line
            if not line.startswith("{"):
                print(line, flush=True)
        code = proc.wait()
    except KeyboardInterrupt:
        kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        shutil.rmtree(work, ignore_errors=True)
    if timed_out.is_set():
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", 4)
    if code != 0:
        fail(f"the benchmark JVM exited with code {code}", 5)
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (TypeError, ValueError, AssertionError):
        fail(f"no result line from the benchmark JVM (last line: {last!r})", 5)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
