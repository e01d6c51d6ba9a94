"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

Runs run.py once per seed, one after another, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between the quartiles as a share of the median.  With several
``--workload`` options the workloads are run in turn.  The raw results go
to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload:
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, **result})
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
        summary = summarize(results)
        for name, s in summary.items():
            print(
                f"  {name:28s} median {s['median']:.6g} {s['unit']}  "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
            )
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share(s): {sorted(shares)}", flush=True)
        out = HERE / "out" / f"spread-{workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"results": results, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
