#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs each workload briefly, untraced and traced, through perfbench/run.py
and checks that:
  - every run exits 0 with a correct result and zero failed operations;
  - every run prints exactly the metrics BENCHMARK.json declares for it
    (end-to-end untraced, per-layer traced) with their units, every
    end-to-end value is above 0, and every per-layer metric is measured
    (not filled in as unexercised) by some workload;
  - traced spans nest inside their parents (same job or request id), self
    times are >= 0, and the self times under each root span sum to it;
  - the traced and untraced runs of a workload print the same listings
    digest;
  - run from a directory that holds only BENCHMARK.json and perfbench/,
    the benchmark exits non-zero without printing a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TOLERANCE_US = 1e-3

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seconds, cwd=ROOT):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def json_lines(stdout, key):
    for line in stdout.splitlines():
        if line.startswith("{") and f'"{key}"' in line:
            try:
                yield json.loads(line)
            except ValueError:
                pass


def check_spans(path, label):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    check(bool(spans), f"{label}: spans were written")
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    nested = self_ok = True
    subtree = [0.0] * len(spans)
    for s in reversed(spans):
        i = s["i"]
        kids = sorted((c["start_us"], c["end_us"])
                      for c in children.get(i, []))
        covered, cursor = 0.0, s["start_us"]
        for lo, hi in kids:
            lo, hi = max(lo, cursor), min(hi, s["end_us"])
            if hi > lo:
                covered, cursor = covered + hi - lo, hi
        self_us = s["end_us"] - s["start_us"] - covered
        if self_us < -TOLERANCE_US or abs(self_us - s["self_us"]) > 0.01:
            self_ok = False
        subtree[i] += self_us
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if (s["start_us"] < p["start_us"] or s["end_us"] > p["end_us"]
                    or s["id"] != p["id"] or p["i"] >= i):
                nested = False
            subtree[s["parent"]] += subtree[i]
    sums_ok = all(
        abs(subtree[s["i"]] - (s["end_us"] - s["start_us"])) <=
        TOLERANCE_US + 1e-9 * (s["end_us"] - s["start_us"])
        for s in spans if s["parent"] < 0)
    check(nested, f"{label}: spans nest in their parents with one id")
    check(self_ok, f"{label}: self times are >= 0 and match the log")
    check(sums_ok, f"{label}: self times sum to each root span")


def check_empty_directory():
    scratch = ROOT / ".bench_build" / "selftest-empty"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench")
    out = run("compile", 0, 1, cwd=scratch)
    printed = list(json_lines(out.stdout, "correct"))
    check(out.returncode != 0 and not printed,
          "without the program's sources: non-zero exit, no result")
    shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    measured_layers = set()

    for workload in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            out = run(workload, trace, args.seconds)
            lines = out.stdout.rstrip("\n").split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
            check(out.returncode == 0 and isinstance(result, dict),
                  f"{label}: exits 0 with a result line")
            if not isinstance(result, dict):
                sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
                continue
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: correct, {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            check(printed == declared[trace],
                  f"{label}: prints every declared metric with its unit")
            if trace:
                filled = [name for d in json_lines(out.stdout,
                                                   "unexercised_layers")
                          for name in d["unexercised_layers"]]
                measured_layers.update(set(printed) - set(filled))
            else:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                check(not zero, f"{label}: every end-to-end value is > 0"
                      + (f" (not: {', '.join(zero)})" if zero else ""))
            digests[trace] = [d["listings_digest"] for d in
                              json_lines(out.stdout, "listings_digest")]
            if trace:
                check_spans(ROOT / ".bench_build" / "traces" /
                            f"{workload}-seed{SEED}.jsonl", label)
        check(len(digests.get(0, [])) == 1 and
              digests.get(0) == digests.get(1),
              f"{workload}: traced and untraced listings are identical")

    missing = sorted(set(declared[1]) - measured_layers)
    check(not missing, "every per-layer metric is measured by a workload"
          + (f" (not: {', '.join(missing)})" if missing else ""))
    check_empty_directory()
    print(f"{len(failures)} check(s) failed" if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
