#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload named in BENCHMARK.json once per seed, alternating the
workload order from one seed to the next, and prints for each end-to-end
metric the median, the quartiles and the quartile spread as a share of the
median, next to the metric's bound. Run it from the root of the repository:

    python3 perfbench/steady.py --seeds 1-10 [--workloads construct,live]

Each run's result line is appended to --log (default .bench_build/steady.jsonl)
so a set of runs can be summarised again with --summarize. With --against
OLD.jsonl it also compares every median with the one in an earlier set of
runs and fails when a metric got worse by more than its bound. It exits 1
when a spread is over its bound, a run was not correct, the share of failed
operations differs between runs, or a median drifted too far.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(s):
    if "-" in s:
        a, b = s.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in s.split(",")]


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = [l for l in p.stderr.splitlines() if " run took " in l]
    if took:
        sys.stderr.write(took[-1] + "\n")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    # The run's own notes on what it did: feed lateness, question counts,
    # the latency tail, freshness.
    notes = [l for l in p.stderr.splitlines() if l.startswith(("feed:", "ask latency:", "questions:", "freshness:"))]
    return json.loads(p.stdout.strip().splitlines()[-1]), notes


def medians(rows):
    """Median of every end-to-end metric per workload."""
    out = {}
    for r in rows:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def summarize(bench, rows, old_rows=None):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    old = medians(old_rows) if old_rows else {}
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        rs = [r for r in rows if r["workload"] == w]
        if not rs:
            continue
        fshare = {r["result"]["failed"] / r["result"]["attempted"] for r in rs}
        if old_rows:
            fshare |= {r["result"]["failed"] / r["result"]["attempted"] for r in old_rows if r["workload"] == w}
        correct = all(r["result"]["correct"] for r in rs)
        print(f"\n{w}: {len(rs)} runs, correct={correct}, failed/attempted={sorted(fshare)}")
        print(f"  {'metric':18} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'drift':>7}")
        for name, m in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else ("  <- over a third of bound" if spread <= m["bound"] else "  <- OVER BOUND")
            if spread > m["bound"]:
                ok = False
            drift = ""
            if (w, name) in old:
                # Positive drift is a change for the worse.
                d = (med - old[(w, name)]) / old[(w, name)]
                if m["better"] == "higher":
                    d = -d
                drift = f"{d:+7.3f}"
                if d > m["bound"]:
                    ok = False
                    flag += "  <- DRIFT OVER BOUND"
            print(f"  {name:18} {m['unit']:10} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f} {drift:>7}{flag}")
        if len(fshare) > 1 or not correct:
            ok = False
    return ok


def load(path, names):
    with open(path) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    return [r for r in rows if r["workload"] in names]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", default=".bench_build/steady.jsonl")
    ap.add_argument("--summarize", action="store_true", help="only summarise the runs already in --log")
    ap.add_argument("--against", default="", help="an earlier set's log to compare medians with")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in names if n in a.workloads.split(",")]
    if not a.summarize:
        os.makedirs(os.path.dirname(a.log) or ".", exist_ok=True)
        for i, seed in enumerate(parse_seeds(a.seeds)):
            order = names if i % 2 == 0 else list(reversed(names))
            for w in order:
                res, notes = run_once(bench["command"], w, seed, bench["run_seconds"])
                row = {"workload": w, "seed": seed, "result": res, "notes": notes}
                with open(a.log, "a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    old_rows = load(a.against, names) if a.against else None
    sys.exit(0 if summarize(bench, load(a.log, names), old_rows) else 1)


if __name__ == "__main__":
    main()
