"""Benchmark of the loeschian library: one workload per run, answers checked.

    python3 perfbench/run.py --workload {queries,sweeps,cli} --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload runs in its own interpreter
(perfbench/worker.py), which imports the package from src/. With --trace 0
the interpreter is started SETUPS times; setup_s is the median of their
set-up times and the middle one also runs the timed loop. With --trace 1 one
interpreter runs the per-layer probe and the tracing-overhead comparison.
Timings of --trace 0 are scaled to the reference speed (speed.py); the raw
ones go to standard error.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
from interp import PYTHON, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("queries", "sweeps", "cli")
SETUPS = 21


def start_worker(mode: str, args) -> dict:
    cmd = PYTHON + [str(HERE / "worker.py"), "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0", str(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=2 * args.seconds + 60)
    if proc.returncode != 0:
        sys.exit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "loeschian" / "__init__.py").is_file():
        sys.exit(f"no loeschian package under {ROOT / 'src'}; run from a full checkout")
    accepted = checks.self_check()
    if accepted:
        sys.exit(f"checkers accepted a wrong answer: {', '.join(accepted)}")

    if args.trace:
        out = start_worker("trace", args)
        metrics = out["metrics"]
    else:
        # Half the set-up starts come before the timed run and half after,
        # so that a drift in machine speed during the run falls on both.
        starts = [start_worker("setup", args) for _ in range(SETUPS // 2)]
        out = start_worker("run", args)
        starts.append(out)
        starts += [start_worker("setup", args) for _ in range(SETUPS // 2)]
        setups = [s["setup_s"] for s in starts]
        raw = dict(out["raw"], setup_s=median(s["raw_setup_s"] for s in starts))
        print(f"{args.workload}: unscaled {json.dumps(raw)}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "ops_per_s": {"value": out["ops_per_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": out["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": out["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
        }
    for problem in out["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": out["wrong"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
