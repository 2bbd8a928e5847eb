"""Steadiness check: run each workload over several seeds and compare spreads with bounds.

    python3 perfbench/steady.py [--first-seed 1]

Run from the repository root. Reads the command, run length and bounds from
BENCHMARK.json, runs every workload once for each of RUNS seeds from
--first-seed on, with --trace 0, and prints for each end-to-end metric the
median and the quartile spread (Q3 - Q1 over the median, quartiles from
statistics.quantiles(values, n=4)) next to its bound. A spread within a third of the bound is steady. The suggested bound
is three times the spread, rounded up to 0.01, at least 0.05 and at most
0.25; rerun this after changing the benchmark to set the bounds again.
Raw results go to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import math
import subprocess
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    raw = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            results.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed, correct={result['correct']}",
                  flush=True)
        raw[workload] = results

    print(f"\n{'workload':8} {'metric':12} {'median':>12} {'spread':>7} {'bound':>6} "
          f"{'verdict':>8} {'suggest':>7}")
    for workload, results in raw.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / mid
            if spread <= metric["bound"] / 3:
                verdict = "steady"
            elif spread <= metric["bound"]:
                verdict = "within"
            else:
                verdict = "WIDE"
            suggest = min(0.25, max(0.05, math.ceil(300 * spread) / 100))
            print(f"{workload:8} {metric['name']:12} {mid:12.5g} {spread:7.3f} "
                  f"{metric['bound']:6.2f} {verdict:>8} {suggest:7.2f}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload:8} failed share {shares}, all correct: "
              f"{all(r['correct'] for r in results)}")

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
