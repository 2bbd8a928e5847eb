"""Alternated before/after pairs of perfbench runs, summarized per end-to-end metric.

    python tools/bench_pairs.py --parent DIR --change DIR --workload queries \
        --seeds 7-16 --out BENCH_24.json

DIR is a full checkout of each side. For each seed both checkouts run the
command of BENCHMARK.json (perfbench/run.py) with --trace 0 and the file's
run_seconds, from their own root; the parent goes first on odd seeds and the
change first on even seeds, so a drift of the machine falls on both sides. Every
run's result line is kept. Per metric the summary gives each side's median and
quartiles, the per-pair relative deltas, the pairs the change wins by the
metric's `better`, whether the change's median is worse than the parent's by more
than the metric's `bound`, and whether its median gain exceeds the spread (IQR)
of the parent's runs. Other workloads already in --out are kept. Exits 1 when any
run reports correct: false. Stdlib only; it is not part of the tier-1 tests.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """Seeds from "7-16" (inclusive) or "1,3,5"."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def quartiles(values):
    """(first quartile, median, third quartile) of values, inclusive method."""
    if len(values) == 1:
        return values * 3
    return quantiles(values, n=4, method="inclusive")


def summarize(pairs, end_to_end):
    """The summary of pairs [{"seed", "first", "parent", "change"}] of result lines.

    end_to_end is the list of BENCHMARK.json; a delta is (change - parent) / parent.
    """
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        after = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        gain = (pm - cm) if lower else (cm - pm)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "deltas": [(a - b) / b for b, a in zip(before, after)],
            "median_delta": (cm - pm) / pm,
            "wins": sum((a < b) if lower else (a > b) for b, a in zip(before, after)),
            "pairs": len(pairs),
            "worse_beyond_bound": -gain / pm > spec["bound"],
            "gain_beyond_parent_iqr": gain > p3 - p1,
        }

    def failed_share(side):
        return (sum(pair[side]["failed"] for pair in pairs)
                / max(1, sum(pair[side]["attempted"] for pair in pairs)))

    return {
        "correct": all(pair[side]["correct"] for pair in pairs for side in ("parent", "change")),
        "failed_share": {side: failed_share(side) for side in ("parent", "change")},
        "metrics": metrics,
    }


def run_once(checkout, command, workload, seed, seconds):
    """The result line of one perfbench run in checkout."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"{checkout}: {' '.join(args)} exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='"7-16" or "1,3,5"')
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]  # the length the benchmark fixes for both sides
    pairs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = (args.parent if side == "parent" else args.change).resolve()
            pair[side] = run_once(checkout, benchmark["command"], args.workload, seed, seconds)
            shown = {k: round(v["value"], 5) for k, v in pair[side]["metrics"].items()}
            print(f"{args.workload} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)
        pairs.append(pair)
    summary = summarize(pairs, benchmark["end_to_end"])
    out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    out["workloads"][args.workload] = {
        "seconds": seconds, "seeds": args.seeds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        **summary, "runs": pairs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{args.workload} {name}: {m['parent']['median']:.5g} -> {m['change']['median']:.5g}"
              f" ({m['median_delta']:+.1%}), change wins {m['wins']} of {m['pairs']}",
              file=sys.stderr)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
