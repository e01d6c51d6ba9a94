"""Spans around the calls into each qsatnet module, recorded from outside.

The program is not edited: a traced round swaps module attributes for
timing wrappers and puts the originals back afterwards.  Each wrapper
adds its duration to its span name (calls, inclusive seconds, self
seconds); self time is the duration minus the time spent in wrapped
calls it made.  Totals are copied at every slot boundary, so the trace
file can give each slot its own breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from qsatnet import config as config_mod
from qsatnet import orbital, scheduler, simharness
from qsatnet.ilpcore import GAP_LIMIT
from qsatnet.ilpcore import mip as mip_mod

# (module, attribute, span name).  Names are looked up where the caller
# finds them: simharness imported its collaborators by name, scheduler
# imports orbital's geometry inside its functions, mip calls solve_lp.
WRAPPED = (
    (config_mod, "load_scenario", "config.load_scenario"),
    (simharness, "synth_weather", "environment.synth_weather"),
    (simharness, "propagate", "orbital.propagate"),
    (orbital, "link_geometry", "orbital.link_geometry"),
    (orbital, "inter_satellite_visible", "orbital.isl_visible"),
    (orbital, "inter_satellite_distance", "orbital.isl_distance"),
    (scheduler, "end_to_end_outcome", "linkphys.end_to_end_outcome"),
    (simharness, "build_weights", "scheduler.build_weights"),
    (simharness, "build_reflection_weights", "scheduler.build_reflection_weights"),
    (scheduler, "uncontended_max_edr", "scheduler.uncontended_max_edr"),
    (scheduler, "solve_one_shot_maxmin", "scheduler.solve_one_shot_maxmin"),
    (simharness, "pair_edr", "scheduler.pair_edr"),
    (scheduler, "solve_mip", "ilpcore.solve_mip"),
    (mip_mod, "solve_lp", "ilpcore.solve_lp"),
    (simharness, "serving_sets", "simharness.serving_sets"),
    (simharness, "count_handovers", "simharness.count_handovers"),
    (simharness, "connectivity_count", "simharness.connectivity_count"),
    (simharness, "write_run_outputs", "simharness.write_run_outputs"),
)
POLICY_SPAN = "scheduler.policy"
# spans whose single-call durations are kept for medians
PER_CALL = ("config.load_scenario", "environment.synth_weather")


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}
        self.calls: dict[str, list[float]] = {name: [] for name in PER_CALL}
        self.counters = {
            "x_support": 0,
            "y_support": 0,
            "lp_rows": 0,
            "nodes_max": 0,
            "gap_limit_results": 0,
        }
        self.marks: list[dict] = []
        self._stack: list[float] = []

    def _span(self, name, fn, after=None):
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        per_call = self.calls.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if per_call is not None:
                    per_call.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    def mark(self, label) -> None:
        """Copy the running totals at a slot boundary."""
        self.marks.append(
            {"label": label, "t": time.perf_counter(),
             "totals": {k: tuple(v) for k, v in self.totals.items()}}
        )

    def _after_policy(self, args, allocation):
        instance = args[0]
        self.counters["x_support"] += sum(1 for row in instance.omega for v in row if v > 0)
        self.counters["y_support"] += sum(1 for v in (instance.nu or {}).values() if v > 0)

    def _after_lp(self, args, result):
        lp = args[0]
        self.counters["lp_rows"] += len(lp.constraints) + sum(
            1 for _, upper in lp.variable_bounds if upper is not None
        )

    def _wrap_mip(self, fn):
        lp_totals = self.totals.setdefault("ilpcore.solve_lp", [0, 0.0, 0.0])

        def counted(*args, **kwargs):
            before = lp_totals[0]
            result = fn(*args, **kwargs)
            self.counters["nodes_max"] = max(self.counters["nodes_max"], lp_totals[0] - before)
            if result.status == GAP_LIMIT:
                self.counters["gap_limit_results"] += 1
            return result

        return self._span("ilpcore.solve_mip", counted)

    @contextmanager
    def installed(self, policy: str):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for module, attr, name in WRAPPED:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if name == "ilpcore.solve_mip":
                    wrapper = self._wrap_mip(original)
                elif name == "ilpcore.solve_lp":
                    wrapper = self._span(name, original, self._after_lp)
                else:
                    wrapper = self._span(name, original)
                if name == "orbital.propagate":
                    inner = wrapper

                    def wrapper(config, stations, t, slot_duration, _inner=inner):
                        self.mark(t)
                        return _inner(config, stations, t, slot_duration)

                setattr(module, attr, wrapper)
            flag, solver = simharness.POLICIES[policy]
            saved.append((simharness.POLICIES, policy, (flag, solver)))
            simharness.POLICIES[policy] = (
                flag, self._span(POLICY_SPAN, solver, self._after_policy)
            )
            yield self
        finally:
            for target, key, original in reversed(saved):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)
