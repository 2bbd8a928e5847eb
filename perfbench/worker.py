"""One workload interpreter: set up, then time whole rounds of operations.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M --t0 NS

Started by run.py, never by hand. --t0 is the parent's CLOCK_MONOTONIC
reading (time.monotonic_ns) just before it started this interpreter, so
setup_s covers process start, imports and warm-up; it is scaled to the
reference speed by a kernel timing taken right after (see speed.py).
Modes: `setup` stops once set up; `run` times the workload; `trace` runs
the per-layer probe and the tracing-overhead comparison. Prints one JSON
line.
"""

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import resource  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402  (imports loeschian)
from workloads import Tally, round_rng  # noqa: E402


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Time whole rounds, with the speed kernel timed at every round boundary.

    Each round's latencies are scaled to the reference speed by the mean of
    the kernel times just before and just after it (see speed.py).
    """
    round_fn, _ = workloads.WORKLOADS[workload]
    tally = Tally()
    kernels = [speed.kernel_ns()]
    ends = [(0, 0)]  # (completed operations, busy ns) at the end of each round
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        tally.run(round_fn(round_rng(seed, index), index))
        kernels.append(speed.kernel_ns())
        ends.append((len(tally.latencies_ns), tally.busy_ns))
        index += 1
    lat_ms, busy_ns = [], 0.0
    for i in range(index):
        factor = speed.scale((kernels[i] + kernels[i + 1]) / 2)
        (done, busy), (done_next, busy_next) = ends[i], ends[i + 1]
        lat_ms += [t * factor / 1e6 for t in tally.latencies_ns[done:done_next]]
        busy_ns += (busy_next - busy) * factor
    raw_ms = [t / 1e6 for t in tally.latencies_ns]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems[:20],
        "ops_per_s": len(lat_ms) / (busy_ns / 1e9),
        "op_p50_ms": median(lat_ms),
        "op_p90_ms": quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
        "raw": {
            "ops_per_s": len(raw_ms) / (tally.busy_ns / 1e9),
            "op_p50_ms": median(raw_ms),
            "op_p90_ms": quantiles(raw_ms, n=10)[8],
            "kernel_ms": median(kernels) / 1e6,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args()

    workloads.WORKLOADS[args.workload][1]()  # warm-up
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    out = {"setup_s": setup_s * speed.scale(speed.kernel_ns()), "raw_setup_s": setup_s}
    accepted = workloads.cli_self_check()
    if accepted:
        sys.exit(f"CLI checks accepted a wrong outcome: {accepted}")
    if args.mode == "run":
        out.update(timed_run(args.workload, args.seed, args.seconds))
    elif args.mode == "trace":
        import layers  # imports loeschian.cli, which the timed runs leave out of set-up

        out.update(layers.trace_run(args.workload, args.seed, args.seconds))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
