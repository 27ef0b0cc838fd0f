#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the benchmark once per seed on each workload and prints, per
metric, the median of the runs and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of that median:
the spread BENCHMARK.json's bounds are checked against. Run it from the
repository root:

    python3 bench/spread.py --seeds 1-10 --out bench/results/seed-a.json
    python3 bench/spread.py --seeds 1-3 --trace 1 --out bench/results/traced.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def machine():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=True)
    return {"nproc": os.cpu_count(), "cpu_model": model, "go_version": go.stdout.strip()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="a-b or a comma list")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run and the summary here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{' '.join(cmd)}: incorrect result:\n{p.stdout}")
            runs.append({"seed": seed, **res})
            print(f"{w} seed {seed} done", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            xs = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"{w:11} {name:28} median {med:<14.6g} spread {spread:8.4f} "
                  f"{'' if bound is None else f'bound {bound}'} {flag}")
        out["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        write_set(args.out, out)


def write_set(path, out):
    """Write a set as JSON with one run and one summary entry per line."""
    items = list(out["workloads"].items())
    with open(path, "w") as f:
        f.write("{\n")
        for k in ("machine", "seconds", "trace"):
            f.write(f' "{k}": {json.dumps(out[k])},\n')
        f.write(' "workloads": {\n')
        for i, (w, v) in enumerate(items):
            runs = ",\n".join("   " + json.dumps(r) for r in v["runs"])
            summary = ",\n".join(f"   {json.dumps(k)}: {json.dumps(s)}" for k, s in v["summary"].items())
            comma = "," if i < len(items) - 1 else ""
            f.write(f'  {json.dumps(w)}: {{\n  "runs": [\n{runs}\n  ],\n'
                    f'  "summary": {{\n{summary}\n  }}}}{comma}\n')
        f.write(" }\n}\n")


if __name__ == "__main__":
    main()
