#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload pr-blaze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the engine libraries, the worker binary and the
perfbench driver) into .bench_build/perfbench; later calls rebuild only what
changed. The driver's human-readable report goes to stdout, build output and
engine logs to stderr, and the last line of stdout is the JSON result
(`--workload all` runs the three workloads in one process, with one result
line per workload and a combined JSON object last). Every
file the run writes (build tree, engine disk stores) stays under
.bench_build/. Exits nonzero, without a result line, when the sources are
missing, the build fails, or the driver fails or runs out of time.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("pr-blaze", "serve-zipf", "pr-dist")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# Engine settings read from the environment that would change what is measured.
SCRUBBED_ENV = ("BLAZE_WORKERS", "BLAZE_WORKER_BIN", "BLAZE_TRACE", "BLAZE_TELEMETRY_PORT",
                "BLAZE_TELEMETRY_JSONL", "BLAZE_BENCH_SCALE", "BLAZE_BENCH_MEM_SCALE")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the driver path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "bin", "perfbench")


def source_id(root):
    """The git commit when there is one, else a digest of the engine sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for sub in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_driver(cmd, env, timeout_s):
    """Runs the driver in its own process group; returns (code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {timeout_s}s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, []
    finally:
        # Worker processes exit with the driver (their stdin lifeline
        # closes); anything of the group still alive is killed here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no engine sources under {root}/src; run from the root of a full checkout")
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        driver = build(root, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    tmp = os.path.join(root, ".bench_build", "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmp  # engine and worker disk stores
    env["BLAZE_LOG_LEVEL"] = "warn"
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(root)]
    try:
        runs = len(WORKLOADS) if args.workload == "all" else 1
        code, lines = run_driver(cmd, env, RUN_TIMEOUT_S * runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines or not valid_result(lines[-1]):
        log(f"driver failed (exit {code})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
