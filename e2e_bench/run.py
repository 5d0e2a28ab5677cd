#!/usr/bin/env python3
"""End-to-end benchmark of the SparseTransX library (see README.md).

Run from the repository root:

  python3 e2e_bench/run.py --workload train-transe --seed 1 --seconds 50 --trace 0
  python3 e2e_bench/run.py            # every workload, untraced then traced

Builds e2e_bench/ (a CMake package that compiles ../src) into .bench_build/
(or $CARGO_TARGET_DIR), runs each workload in its own process and prints
its context, metric and check lines. The last line is one JSON object with
the keys correct, attempted, failed and metrics. Exits non-zero, without a
result line, when the library sources are missing or the build fails.
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

WORKLOADS = ["train-transe", "ddp-procs"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every file under src/: identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository rooted here, or "none" (a plain checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def build(build_root):
    """Configure (once) and build the benchmark binary; returns its path."""
    build_dir = os.path.join(build_root, "e2e")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "e2e.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed")
    return os.path.join(build_dir, "sptx_e2e")


def run_one(binary, build_root, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (output lines, result)."""
    workdir = os.path.join(build_root, f"run-{os.getpid()}-{workload}")
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPTX_")}
    # Relative, so the DDP supervisor's socket path stays short whatever
    # the checkout's location.
    env["TMPDIR"] = os.path.relpath(tmpdir, ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", os.path.relpath(workdir, ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: {workload} timed out", file=sys.stderr)
        sys.exit(1)
    finally:
        # Timeout, SIGTERM or ^C: take the workload's process group down
        # (DDP workers included) and wait for it before leaving.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    sys.stderr.write(err)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"e2e_bench: {workload} exited {proc.returncode} without a "
              f"result", file=sys.stderr)
        sys.exit(proc.returncode or 1)
    return lines[:-1], result


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"library sources not found under {ROOT}/src")
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    print("context " + json.dumps({"commit": git_commit(),
                                   "source_sha256": source_digest()}))

    runs = ([(args.workload, bool(args.trace))] if args.workload else
            [(w, t) for w in WORKLOADS for t in (False, True)])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        lines, result = run_one(binary, build_root, workload, args.seed,
                                args.seconds, trace)
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        if len(runs) == 1:
            return
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
