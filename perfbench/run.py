#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mth-paper|tenant-dml \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and builds the
benchmark program and the MTBase libraries from source (Release) into
.bench_build, or into $CARGO_TARGET_DIR when that is set; later runs only
re-check the build. The program's report goes to standard output; its
last line is the result object {"correct", "attempted", "failed",
"metrics"}. Build output goes to standard error. Without the repository
sources beside this directory the build fails and the script exits
non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.abspath(path)


def build(out_dir):
    """Configure (once) and build perfbench; return the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the MTBase sources (CMakeLists.txt, src/) are not beside "
             "perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(out_dir, "perfbench")


def source_id():
    """The git commit of a git checkout, else a digest of the sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10, check=False)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mth-paper", "tenant-dml"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every phase (smoke test)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        bench = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    except OSError as err:
        fail(f"cannot start {binary}: {err}")
    # Stop the program with this script: on timeout or SIGTERM, end it and
    # wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish in time")
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    lines = out.decode(errors="replace").splitlines()
    if bench.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"perfbench exited {bench.returncode}", bench.returncode)
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as err:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"perfbench printed no result: {err}")
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
