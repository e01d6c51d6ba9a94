"""Benchmark of the ``qsatnet simulate`` pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each pipeline goes through the entry points in the order ``qsatnet
simulate`` uses them: ``config.load_scenario``, ``simharness.
resolve_weather``, ``simharness.run``, ``simharness.write_run_outputs``.
A round runs every pipeline of the workload once; rounds repeat until
``--seconds`` have passed.  Outputs are checked after the timed rounds
(see checks.py).  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import random
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# string hashing and BLAS threads vary from one process to the next;
# pinning them makes one process's timings repeat in the next
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUPS_PER_ROUND = 16
# Timings are scaled to a machine on which reference_loop() takes this
# long (its fast-phase time on the machine the benchmark was written on).
REFERENCE_NOMINAL_S = 120e-6
REFERENCE_REPEATS = 3
MAX_REPORTED_FAILURES = 10


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Pipeline:
    """One scenario file and the products of its latest set-up."""

    def __init__(self, path: Path, out_dir: Path):
        self.path = str(path)
        self.out_dir = str(out_dir)
        self.config = None
        self.env = None


class Recorder:
    """Pass-through hooks on ``propagate`` and the policy function.

    They stamp the start of every slot and, for the slots chosen for
    checking, keep the snapshot, the instance and the allocation.  The
    cost is two extra Python calls per slot.
    """

    def __init__(self, simharness, policy: str):
        self.simharness = simharness
        self.policy = policy
        self.keep: set[int] = set()
        self.kept: dict[int, dict] = {}
        self.starts: list[float] = []
        self.current = None

    def begin(self, keep: set[int]) -> None:
        self.keep = keep
        self.kept = {}
        self.starts = []
        self.current = None

    def install(self):
        propagate = self.simharness.propagate
        flag, solver = self.simharness.POLICIES[self.policy]
        self._saved = (propagate, (flag, solver))

        def recorded_propagate(config, stations, t, slot_duration):
            self.starts.append(time.perf_counter())
            snapshot = propagate(config, stations, t, slot_duration)
            self.current = t
            if t in self.keep:
                self.kept[t] = {"snapshot": snapshot}
            return snapshot

        def recorded_solver(instance):
            allocation = solver(instance)
            if self.current in self.keep:
                self.kept[self.current].update(instance=instance, allocation=allocation)
            return allocation

        self.simharness.propagate = recorded_propagate
        self.simharness.POLICIES[self.policy] = (flag, recorded_solver)

    def remove(self) -> None:
        self.simharness.propagate, self.simharness.POLICIES[self.policy] = self._saved


class Bench:
    def __init__(self, workload, seed: int):
        import qsatnet.config as config_mod
        from qsatnet import simharness

        self.config_mod = config_mod
        self.simharness = simharness
        self.workload = workload
        self.run_dir = OUT / workload.name / f"seed{seed}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.pipes = []
        for k in range(workload.weathers):
            path = self.run_dir / f"scenario{k:02d}.json"
            path.write_text(json.dumps(workload.scenario_for(seed, k), indent=2) + "\n")
            self.pipes.append(Pipeline(path, self.run_dir / f"out{k:02d}"))
        self.recorder = Recorder(simharness, workload.scenario["policy"])
        # (round, seconds, reference seconds just before)
        self.setup_times: list[tuple[int, float, float]] = []
        self.untraced_pieces: list[list] = []
        self.untraced_refs: list[list[float]] = []
        self.traced_pieces: list[list] = []
        self.output_bytes = 0
        self.reference: list = [None] * workload.weathers
        self.failed: set[tuple[int, int, int]] = set()
        self.failures: list[str] = []
        self.rounds = 0
        self.checked_slots = 0
        self.kept_by_pipe: dict[int, dict] = {}
        self.tracer = None

    # -- failure bookkeeping -------------------------------------------------

    def fail(self, rounds, k, slots, message) -> None:
        for r in rounds:
            for t in slots:
                self.failed.add((r, k, t))
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"pipeline {k}: {message}")

    # -- the timed parts -----------------------------------------------------

    def set_up(self, k: int, reference: float) -> None:
        """Set pipeline ``k`` up; 16 timed set-ups per round in all."""
        pipe = self.pipes[k]
        for _ in range(-(-SETUPS_PER_ROUND // len(self.pipes))):
            start = time.perf_counter()
            config = self.config_mod.load_scenario(pipe.path)
            env = self.simharness.resolve_weather(config)
            self.setup_times.append((self.rounds, time.perf_counter() - start, reference))
            pipe.config, pipe.env = config, env

    def run_round(self) -> tuple[list, list[float]]:
        """Every pipeline once, timing ``run`` plus ``write_run_outputs``.

        Returns, per pipeline, the timed pieces in order (run start to the
        first slot, each slot, the write; None where the run raised) and
        the reference-loop time around it.  The first round keeps the
        slots chosen for checking.
        """
        w = self.workload
        r = self.rounds
        pieces = []
        references = []
        for k, pipe in enumerate(self.pipes):
            keep = set()
            if r == 0:
                keep = {
                    t for t in range(w.slots_per_pipeline)
                    if (k * w.slots_per_pipeline + t) % w.check_stride == 0
                }
            gc.collect()
            before = time_reference()
            self.set_up(k, before)
            self.recorder.begin(keep)
            header = {
                "policy": pipe.config.policy,
                "config_path": os.path.relpath(pipe.path, ROOT),
                "overrides": {},
            }
            gc.collect()
            start = time.perf_counter()
            try:
                report = self.simharness.run(pipe.config, pipe.env)
                run_end = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.mark("end")
                self.simharness.write_run_outputs(report, pipe.out_dir, header=header)
            except Exception as exc:  # the pipeline's slots count as failed
                pieces.append(None)
                references.append(before)
                self.fail([r], k, range(w.slots_per_pipeline), f"round {r}: {exc!r}")
                continue
            marks = [start, *self.recorder.starts, run_end, time.perf_counter()]
            pieces.append([b - a for a, b in zip(marks, marks[1:])])
            references.append(0.5 * (before + time_reference()))
            if r == 0:
                self.kept_by_pipe[k] = self.recorder.kept
            self.check_against_reference(r, k, report)
        self.rounds += 1
        return pieces, references

    def check_against_reference(self, r, k, report) -> None:
        """Later rounds must reproduce the first round exactly."""
        if self.reference[k] is None:
            self.reference[k] = report
            return
        ref = self.reference[k]
        if report == ref:
            return
        differing = [
            t for t, (a, b) in enumerate(zip(ref.series, report.series)) if a != b
        ]
        if report.per_pair_daily != ref.per_pair_daily or len(ref.series) != len(report.series):
            differing = range(self.workload.slots_per_pipeline)
        self.fail([r], k, differing, f"round {r} differs from round 0")

    # -- the run -------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> dict:
        """Untimed warm-up, then rounds until ``seconds`` have passed."""
        self.warm_up()
        self.recorder.install()
        tracers = []
        try:
            began = last = time.perf_counter()
            round_wall = 0.0
            # stop once another round would end more than half a round late
            while (
                self.rounds == 0
                or last - began + 1.5 * round_wall <= seconds
                or (trace and not tracers)
            ):
                traced = trace and self.rounds % 2 == 1
                if traced:
                    from tracer import Tracer

                    self.tracer = Tracer()
                    with self.tracer.installed(self.workload.scenario["policy"]):
                        pieces, _ = self.run_round()
                    tracers.append(self.tracer)
                    self.tracer = None
                    self.traced_pieces.append(pieces)
                else:
                    pieces, references = self.run_round()
                    self.untraced_pieces.append(pieces)
                    self.untraced_refs.append(references)
                elapsed = round_seconds(pieces)
                now = time.perf_counter()
                round_wall, last = now - last, now
                log(f"round {self.rounds - 1}{' traced' if traced else ''}: {elapsed:.3f} s")
        finally:
            self.recorder.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.output_bytes = sum(
            os.path.getsize(os.path.join(pipe.out_dir, name))
            for pipe in self.pipes
            for name in ("metrics.csv", "per_pair.csv", "report.json")
            if os.path.exists(os.path.join(pipe.out_dir, name))
        )
        return {"peak_rss_mb": peak_rss_mb, "tracers": tracers}

    def warm_up(self) -> None:
        """Fill lazy imports and caches on a two-slot copy of the first pipeline."""
        for k in range(len(self.pipes)):
            self.set_up(k, time_reference())
        pipe = self.pipes[0]
        short = dataclasses.replace(pipe.config, num_slots=min(2, pipe.config.num_slots))
        report = self.simharness.run(short, pipe.env)
        self.simharness.write_run_outputs(report, str(self.run_dir / "warmup"))
        self.setup_times.clear()

    # -- checks, after timing ------------------------------------------------

    def check(self) -> None:
        import checks

        w = self.workload
        all_rounds = range(self.rounds)
        for k, pipe in enumerate(self.pipes):
            report = self.reference[k]
            if report is None:
                continue
            slots = range(w.slots_per_pipeline)
            problems = checks.conservation_violations(report, pipe.config.slot_duration)
            problems += checks.readback_violations(report, pipe.out_dir)
            if len(report.series) != w.slots_per_pipeline:
                problems.append(f"{len(report.series)} slots reported")
            if problems:
                self.fail(all_rounds, k, slots, "; ".join(problems[:3]))
            for t, kept in sorted(self.kept_by_pipe.get(k, {}).items()):
                problems = self.check_slot(checks, pipe.config, kept, report.series[t])
                if problems:
                    self.fail(all_rounds, k, [t], f"slot {t}: " + "; ".join(problems[:3]))
                self.checked_slots += 1

    def check_slot(self, checks, config, kept, slot) -> list[str]:
        if "allocation" not in kept:
            return ["slot was not solved"]
        instance, allocation = kept["instance"], kept["allocation"]
        problems = checks.feasibility_violations(instance, allocation)
        problems += checks.reported_rate_violations(instance, allocation, slot)
        problems += checks.geometry_violations(
            instance, allocation, kept["snapshot"], config.min_elevation
        )
        model = checks.SlotModel(instance)
        optimum = model.ratesum_optimum()
        if self.workload.objective == "ratesum":
            problems += checks.ratesum_violations(slot, optimum)
        else:
            optima = model.uncontended_optima()
            floor = model.maxmin_floor(optima)
            problems += checks.maxmin_violations(slot, instance.pair_ids, optima, floor, optimum)
        return problems

    @property
    def attempted(self) -> int:
        return self.rounds * self.workload.slots_per_round

    def delivered_ebits(self) -> float:
        return math.fsum(
            v for report in self.reference if report is not None
            for v in report.per_pair_daily.values()
        )


def reference_loop() -> float:
    """Fixed pure-Python work of the benchmark's own: a yardstick for how
    fast the machine runs Python at the moment (random numbers, float math,
    tuples and a dict, like the program's inner loops)."""
    rng = random.Random(12345)
    table = {}
    total = 0.0
    for i in range(300):
        x, y, z = rng.random(), rng.random(), rng.random()
        d = math.sqrt(x * x + y * y + z * z)
        table[(i % 17, i)] = (d, math.asin(z / d))
        total += d
    return total


def time_reference() -> float:
    """Median time of a few reference loops, taken now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def round_seconds(pieces) -> float:
    return math.fsum(math.fsum(p) for p in pieces if p is not None)


def scaled_round_seconds(pieces, references) -> float:
    """A round's time with each pipeline scaled to the nominal machine speed."""
    return math.fsum(
        math.fsum(p) * REFERENCE_NOMINAL_S / ref
        for p, ref in zip(pieces, references)
        if p is not None
    )


def tail_percentile(count: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    if count < 40:
        return None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def layer_metrics(bench: Bench, tracer) -> dict:
    """Per-layer figures of one traced round."""
    totals = tracer.totals
    slots = bench.workload.slots_per_round

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    policy_s = seconds("scheduler.policy")
    return {
        "config.load_s": (statistics.median(tracer.calls["config.load_scenario"]), "s"),
        "environment.weather_s": (
            statistics.median(tracer.calls["environment.synth_weather"]), "s"
        ),
        "orbital.propagate_s": (seconds("orbital.propagate"), "s"),
        "orbital.geometry_s": (
            seconds("orbital.link_geometry", "orbital.isl_visible", "orbital.isl_distance"),
            "s",
        ),
        "orbital.link_geometry_calls": (calls("orbital.link_geometry") / slots, "count"),
        "orbital.isl_calls": (calls("orbital.isl_visible", "orbital.isl_distance") / slots, "count"),
        "linkphys.outcome_calls": (calls("linkphys.end_to_end_outcome") / slots, "count"),
        "linkphys.outcome_s": (seconds("linkphys.end_to_end_outcome"), "s"),
        "scheduler.weights_s": (
            seconds("scheduler.build_weights", "scheduler.build_reflection_weights"), "s"
        ),
        "scheduler.x_support": (tracer.counters["x_support"] / slots, "count"),
        "scheduler.y_support": (tracer.counters["y_support"] / slots, "count"),
        "scheduler.policy_s": (policy_s, "s"),
        "scheduler.assembly_s": (policy_s - seconds("ilpcore.solve_mip"), "s"),
        "scheduler.uncontended_calls": (calls("scheduler.uncontended_max_edr") / slots, "count"),
        "scheduler.maxmin_calls": (calls("scheduler.solve_one_shot_maxmin") / slots, "count"),
        "ilpcore.mip_calls": (calls("ilpcore.solve_mip") / slots, "count"),
        "ilpcore.mip_s": (seconds("ilpcore.solve_mip"), "s"),
        "ilpcore.lp_calls": (calls("ilpcore.solve_lp") / slots, "count"),
        "ilpcore.lp_s": (seconds("ilpcore.solve_lp"), "s"),
        "ilpcore.lp_rows_mean": (
            tracer.counters["lp_rows"] / max(1, calls("ilpcore.solve_lp")), "count"
        ),
        "ilpcore.nodes_max": (tracer.counters["nodes_max"], "count"),
        "ilpcore.gap_limit_results": (tracer.counters["gap_limit_results"], "count"),
        "simharness.metrics_s": (
            seconds(
                "scheduler.pair_edr",
                "simharness.serving_sets",
                "simharness.count_handovers",
                "simharness.connectivity_count",
            ),
            "s",
        ),
        "simharness.write_s": (seconds("simharness.write_run_outputs"), "s"),
    }


def write_trace(tracers, path: Path) -> None:
    """One JSON line per traced slot: its span totals (calls, inclusive s, self s)."""
    with open(path, "w") as handle:
        for n, tracer in enumerate(tracers):
            marks = tracer.marks
            for a, b in zip(marks, marks[1:]):
                if not isinstance(a["label"], int):
                    continue
                spans = {}
                for name, after in b["totals"].items():
                    before = a["totals"].get(name, (0, 0.0, 0.0))
                    delta = [after[0] - before[0], after[1] - before[1], after[2] - before[2]]
                    if delta[0]:
                        spans[name] = [delta[0], round(delta[1], 9), round(delta[2], 9)]
                record = {"traced_round": n, "t": a["label"],
                          "ms": round(1e3 * (b["t"] - a["t"]), 6), "spans": spans}
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qsatnet" / "__init__.py").is_file():
        log(f"no qsatnet sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    measured = bench.measure(args.seconds, bool(args.trace))
    bench.check()
    failed = len(bench.failed)
    for message in bench.failures:
        log(f"FAILED {message}")
    log(
        f"{workload.name} seed {args.seed}: {bench.rounds} rounds, "
        f"{bench.attempted} slots, {failed} failed, {bench.checked_slots} slots checked "
        f"against HiGHS"
    )

    if args.trace:
        per_round = [layer_metrics(bench, tracer) for tracer in measured["tracers"]]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_round), "unit": unit}
            for name, (_, unit) in per_round[0].items()
        }
        slot_ms = [
            1e3 * t for pieces in bench.untraced_pieces for p in pieces if p is not None
            for t in p[1:-1]
        ]
        pct = tail_percentile(len(slot_ms))
        metrics["simharness.output_bytes"] = {"value": bench.output_bytes, "unit": "B"}
        metrics["slot.count"] = {"value": len(slot_ms), "unit": "count"}
        metrics["slot.p50_ms"] = {"value": statistics.median(slot_ms), "unit": "ms"}
        metrics["slot.tail_pct"] = {"value": pct if pct is not None else 50.0, "unit": "%"}
        metrics["slot.tail_ms"] = {
            "value": percentile(slot_ms, pct) if pct is not None else statistics.median(slot_ms),
            "unit": "ms",
        }
        metrics["slot.max_ms"] = {"value": max(slot_ms), "unit": "ms"}
        metrics["bench.reference_us"] = {
            "value": 1e6 * statistics.median(
                ref for refs in bench.untraced_refs for ref in refs
            ),
            "unit": "us",
        }
        metrics["bench.run_wall_s"] = {
            "value": statistics.median(map(round_seconds, bench.untraced_pieces)),
            "unit": "s",
        }
        metrics["bench.setup_wall_s"] = {
            "value": statistics.median(t for _, t, _ in bench.setup_times),
            "unit": "s",
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(map(round_seconds, bench.traced_pieces))
            - statistics.median(map(round_seconds, bench.untraced_pieces)),
            "unit": "s",
        }
        trace_path = bench.run_dir / "trace.jsonl"
        write_trace(measured["tracers"], trace_path)
        log(f"slot tail: p{metrics['slot.tail_pct']['value']:g} of {len(slot_ms)} untraced slots")
        log(f"per-slot spans in {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(
                    t * REFERENCE_NOMINAL_S / ref for _, t, ref in bench.setup_times
                ),
                "unit": "s",
            },
            "run_s": {
                "value": statistics.median(
                    map(scaled_round_seconds, bench.untraced_pieces, bench.untraced_refs)
                ),
                "unit": "s",
            },
            "delivered_ebits": {"value": bench.delivered_ebits(), "unit": "ebit"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        log(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
