#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload compile|sweep|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
scheduler from ../src with the repository's default flags) into
.bench_build/ on first use, runs the chosen workload in its own process,
and forwards its output. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
every workload measures each of them. With --trace 1 they are the
per-layer ones (a layer the workload never calls reads 0) and the spans
are written to .bench_build/traces/. Build logs go to standard error.
Every file written stays under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = Path(".bench_build")  # relative to ROOT (the child's cwd)
CMAKE_DIR = BUILD_ROOT / "cmake"
WORKLOADS = ("compile", "sweep", "serve")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    return args


def build():
    """Configure once, then bring csbench up to date (a no-op when it is)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"scheduler sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (ROOT / CMAKE_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR.relative_to(ROOT)),
                     "-B", str(CMAKE_DIR), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("configure failed", 3)
    compile_cmd = ["cmake", "--build", str(CMAKE_DIR), "--target", "csbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        fail("build failed", 3)
    return CMAKE_DIR / "csbench"


def source_id():
    """The git sha when the checkout is a repository, else a tree hash."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    binary = build()
    work_dir = BUILD_ROOT / "work"
    (ROOT / work_dir).mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--source-id", source_id()]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        (ROOT / traces).mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write((exc.stderr or b"").decode(errors="replace")
                         if isinstance(exc.stderr, bytes) else
                         (exc.stderr or ""))
        fail(f"workload '{args.workload}' timed out", 4)
    sys.stderr.write(child.stderr)
    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    is_result = isinstance(result, dict) and set(result) == {
        "correct", "attempted", "failed", "metrics"}
    if child.returncode != 0 or not is_result:
        # No result: show what the run said, minus any result line.
        body = lines[:-1] if is_result else lines
        sys.stdout.write("\n".join(body) + "\n")
        fail(f"workload '{args.workload}' exited with code "
             f"{child.returncode} and no result", child.returncode or 5)
    if args.trace:
        fill_unexercised_layers(result, lines, args.workload)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


def fill_unexercised_layers(result, lines, workload):
    """Give the traced result every per-layer metric BENCHMARK.json names.

    Each workload measures the layers it calls; a layer it never calls
    (the serve transport on compile, the II wavefront on serve) did no
    work in it, so its metrics read 0 in their declared unit. Their
    names are printed on an {"unexercised_layers": [...]} line.
    """
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        fail(f"{manifest} not found")
    declared = json.loads(manifest.read_text())["per_layer"]
    missing = [m for m in declared if m["name"] not in result["metrics"]]
    for m in missing:
        result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
    lines.insert(-1, json.dumps(
        {"unexercised_layers": [m["name"] for m in missing]}))
    print(f"run.py: {len(missing)} per-layer metrics of layers "
          f"'{workload}' does not call read 0", file=sys.stderr)
    lines[-1] = json.dumps(result)


if __name__ == "__main__":
    sys.exit(main())
