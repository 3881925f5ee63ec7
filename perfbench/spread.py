#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload cell-hot --seeds 1-10
    python3 perfbench/spread.py --workload figs --seeds 1-5 --heldout 11

--heldout runs one more seed and checks that each of its end-to-end
metrics lies within the metric's bound of the median over --seeds, in the
metric's worse direction.  Results are appended to
.bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--heldout", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(f".bench_build/spread-{args.workload}.jsonl", "a")
    values = {}
    for seed in parse_seeds(args.seeds):
        res = run(args.workload, seed, seconds)
        log.write(json.dumps({"seed": seed, "result": res}) + "\n")
        log.flush()
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    heldout_ok = True
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        flag = "ok" if spread <= m["bound"] / 3 else ("WIDE" if spread <= m["bound"] else "OVER")
        print(f"{m['name']:20s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {spread:7.4f}  bound {m['bound']:.2f}  {flag}")
    if args.heldout is not None:
        res = run(args.workload, args.heldout, seconds)
        log.write(json.dumps({"seed": args.heldout, "heldout": True, "result": res}) + "\n")
        for m in bench["end_to_end"]:
            med = statistics.median(values[m["name"]])
            v = res["metrics"][m["name"]]["value"]
            worse = (v - med) / med if m["better"] == "lower" else (med - v) / med
            ok = worse <= m["bound"]
            heldout_ok = heldout_ok and ok
            print(f"heldout {args.heldout} {m['name']:20s} {v:14.6g} vs median {med:14.6g}  "
                  f"worse by {worse:+.4f}  bound {m['bound']:.2f}  {'ok' if ok else 'OUT'}")
    return 0 if heldout_ok else 1


if __name__ == "__main__":
    sys.exit(main())
