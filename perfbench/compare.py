#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares two sets.

  python3 perfbench/compare.py sweep OUT_DIR [--seeds 1-10] [--workloads a,b] [--trace 0|1]
      runs `bash perfbench/run.sh` once per workload and seed, with the
      run length from BENCHMARK.json, and keeps each run's standard
      output as OUT_DIR/<workload>-<seed>.out

  python3 perfbench/compare.py compare DIR_A DIR_B
      prints, per workload and end-to-end metric, each set's median and
      quartiles, the spread (Q3 - Q1) as a share of the median, how much
      worse B's median is than A's (negative: better), and whether the
      two medians differ, in either direction, by more than the metric's
      bound; then each set's share of failed operations

Quartiles are Python's statistics.quantiles(values, n=4). Run from the
root of the checkout.
"""
import json
from fractions import Fraction
import os
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_range(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def sweep(args):
    bench = load_bench()
    out_dir = args[0]
    seeds, names, trace = list(range(1, 11)), [w["name"] for w in bench["workloads"]], "0"
    i = 1
    while i < len(args):
        if args[i] == "--seeds":
            seeds = parse_range(args[i + 1])
        elif args[i] == "--workloads":
            names = args[i + 1].split(",")
        elif args[i] == "--trace":
            trace = args[i + 1]
        else:
            sys.exit(f"unknown flag {args[i]}")
        i += 2
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", trace]
            t0 = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            wall = time.time() - t0
            path = os.path.join(out_dir, f"{name}-{seed}.out")
            with open(path, "w") as f:
                f.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed={seed} exit={proc.returncode} wall={wall:.1f}s {last[:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)


def results(run_dir):
    """Maps workload -> list of result objects (the last output line)."""
    out = {}
    for fn in sorted(os.listdir(run_dir)):
        if not fn.endswith(".out"):
            continue
        name = fn[: fn.rindex("-")]
        with open(os.path.join(run_dir, fn)) as f:
            lines = f.read().strip().splitlines()
        if lines:
            out.setdefault(name, []).append(json.loads(lines[-1]))
    return out


def compare(args):
    bench = load_bench()
    a, b = results(args[0]), results(args[1])
    print(f"{'workload':15} {'metric':16} {'n':>5} {'median A':>11} {'Q1..Q3 A':>23} {'IQR/med':>8}"
          f" {'median B':>11} {'Q1..Q3 B':>23} {'IQR/med':>8} {'B vs A':>8} {'bound':>6}  verdict")
    agree = True
    for w in bench["workloads"]:
        name = w["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            if len(va) < 2 or len(vb) < 2:
                continue
            qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > m["bound"]:
                verdict = "WORSE BEYOND BOUND"
            elif -worse > m["bound"]:
                verdict = "BETTER BEYOND BOUND"
            else:
                verdict = "ok"
            agree &= verdict == "ok"
            print(f"{name:15} {m['name']:16} {len(va):>2}/{len(vb):<2} {ma:11.4f} {qa[0]:11.4f}..{qa[2]:<10.4f}"
                  f" {(qa[2] - qa[0]) / ma:8.3f} {mb:11.4f} {qb[0]:11.4f}..{qb[2]:<10.4f} {(qb[2] - qb[0]) / mb:8.3f}"
                  f" {worse:+8.3f} {m['bound']:6.2f}  {verdict}")
        for label, rs in (("A", ra), ("B", rb)):
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in rs})
            correct = all(r["correct"] for r in rs)
            print(f"{name:15} set {label}: correct={correct} failed {fail}/{att} per-run {' '.join(shares)}")
    print("all medians agree within bounds" if agree else "SOME MEDIANS DIFFER BEYOND BOUND")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "sweep":
        sweep(sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2:])
    else:
        sys.exit(__doc__)
