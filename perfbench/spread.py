"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median (Python's statistics.quantiles, n=4), next to its bound.

    python3 perfbench/spread.py --workloads screen-kernel,dist-wire --seeds 1-10

Run from the repository root; results are appended as JSON lines to
--out (default .bench_build/spread.jsonl) so a partial sweep is kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    a = ap.parse_args()
    metrics = bench["end_to_end"] if a.trace == "0" else bench["per_layer"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    ok = True
    for w in a.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout
            res = json.loads(out.strip().splitlines()[-1])
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            ok &= res["correct"] and res["failed"] == 0
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
        print(f"== {w}")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
            print(f"  {m['name']:<36} median {med:12.6g}  spread {spread:7.4f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
