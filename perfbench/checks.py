"""Output checks that do not reuse the program's own code.

Every check here rebuilds what it needs from plain data: the slot
instance's rate tables and caps, the allocation's integer counts, the
snapshot's Cartesian positions, and the files the run wrote.  The
scheduling model is formulated again from its definition (transmitter,
reflector, receiver and pair caps over direct cells and relay triples)
and solved with HiGHS through ``scipy.optimize.milp``, so a fault in the
program's own MIP assembly or solver cannot hide itself.

Each ``*_violations`` function returns a list of messages; an empty list
means the check passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

RATE_REL_TOL = 1e-9
FLOOR_ABS_TOL = 1e-9
CONSERVATION_REL_TOL = 1e-12
ELEVATION_TOL_DEG = 1e-9
ISL_CLEARANCE_M = 100e3
# below this a rate is treated as zero when normalising by an optimum
ZERO_RATE = 1e-300


# ---------------------------------------------------------------------------
# feasibility, in integer arithmetic


def _as_count(value) -> int | None:
    """The value as a Python int when it is a nonnegative integer."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, np.integer)) and value >= 0:
        return int(value)
    if isinstance(value, (float, np.floating)) and value >= 0 and float(value).is_integer():
        return int(value)
    return None


def feasibility_violations(instance, allocation) -> list[str]:
    """Caps, self-relay and count integrality of one slot's allocation."""
    n_sat, n_pair = len(instance.sat_ids), len(instance.pair_ids)
    if len(allocation.x) != n_sat or any(len(row) != n_pair for row in allocation.x):
        return ["direct-count table does not match the instance shape"]
    messages = []
    tx = [0] * n_sat
    refl = [0] * n_sat
    pair = [0] * n_pair
    for i, row in enumerate(allocation.x):
        for j, value in enumerate(row):
            count = _as_count(value)
            if count is None:
                messages.append(f"x[{i}][{j}] = {value!r} is not a nonnegative integer")
                continue
            if count and instance.omega[i][j] <= 0:
                messages.append(f"x[{i}][{j}] = {count} on a cell with no rate")
            tx[i] += count
            pair[j] += count
    nu = instance.nu or {}
    for entry in allocation.y:
        i, k, j, value = entry
        count = _as_count(value)
        if count is None:
            messages.append(f"y{(i, k, j)} = {value!r} is not a nonnegative integer")
            continue
        if not (0 <= i < n_sat and 0 <= k < n_sat and 0 <= j < n_pair):
            messages.append(f"y{(i, k, j)} indexes outside the instance")
            continue
        if i == k:
            messages.append(f"y{(i, k, j)} relays through its own source")
        if count and nu.get((i, k, j), 0.0) <= 0:
            messages.append(f"y{(i, k, j)} = {count} on a triple with no rate")
        tx[i] += count
        refl[k] += count
        pair[j] += count
    for i in range(n_sat):
        if tx[i] > instance.sat_caps[i]:
            messages.append(
                f"satellite {instance.sat_ids[i]}: {tx[i]} transmissions over cap "
                f"{instance.sat_caps[i]}"
            )
        if refl[i] > instance.reflector_caps[i]:
            messages.append(
                f"satellite {instance.sat_ids[i]}: {refl[i]} reflections over cap "
                f"{instance.reflector_caps[i]}"
            )
    for g, station in enumerate(instance.station_ids):
        load = sum(pair[j] for j, ab in enumerate(instance.pair_stations) if g in ab)
        if load > instance.gs_caps[g]:
            messages.append(
                f"station {station}: {load} connections over cap {instance.gs_caps[g]}"
            )
    for j in range(n_pair):
        if pair[j] > instance.pair_caps[j]:
            messages.append(
                f"pair {instance.pair_ids[j]}: {pair[j]} connections over cap "
                f"{instance.pair_caps[j]}"
            )
    return messages


def recomputed_pair_rates(instance, allocation) -> list[float]:
    """Per-pair delivered rate, summed here from the counts and the rates."""
    rates = [0.0] * len(instance.pair_ids)
    for i, row in enumerate(allocation.x):
        for j, count in enumerate(row):
            if count:
                rates[j] += instance.omega[i][j] * count
    nu = instance.nu or {}
    for i, k, j, count in allocation.y:
        rates[j] += nu[(i, k, j)] * count
    return rates


def reported_rate_violations(instance, allocation, slot) -> list[str]:
    """The report's per-pair and aggregate rates against the allocation."""
    messages = []
    expected = recomputed_pair_rates(instance, allocation)
    for j, pid in enumerate(instance.pair_ids):
        got = slot.per_pair_edr.get(pid)
        if got is None or not _close(got, expected[j], RATE_REL_TOL):
            messages.append(f"pair {pid}: reported rate {got!r}, allocation gives {expected[j]!r}")
    if not _close(slot.aggregate_edr, math.fsum(expected), RATE_REL_TOL):
        messages.append(
            f"aggregate {slot.aggregate_edr!r} differs from summed rates {math.fsum(expected)!r}"
        )
    connected = sum(
        1 for j in range(len(instance.pair_ids))
        if any(row[j] > 0 for row in instance.omega)
    )
    if slot.connectivity != connected:
        messages.append(f"connectivity {slot.connectivity}, rate table gives {connected}")
    return messages


def _close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# geometry gate


def elevations_deg(sat_xyz: np.ndarray, gs_xyz: np.ndarray) -> np.ndarray:
    """Elevation of every satellite (columns) above every station (rows)."""
    d = sat_xyz[None, :, :] - gs_xyz[:, None, :]
    up = gs_xyz / np.linalg.norm(gs_xyz, axis=1, keepdims=True)
    sin_e = np.einsum("gsk,gk->gs", d, up) / np.linalg.norm(d, axis=2)
    return np.degrees(np.arcsin(np.clip(sin_e, -1.0, 1.0)))


def geometry_violations(instance, allocation, snapshot, min_elevation) -> list[str]:
    """Served links clear the elevation mask; relay hops clear the Earth."""
    sat_xyz = np.array([snapshot.sat_positions[s] for s in instance.sat_ids], dtype=float)
    gs_xyz = np.array([snapshot.gs_positions[g] for g in instance.station_ids], dtype=float)
    elev = elevations_deg(sat_xyz, gs_xyz)
    floor = min_elevation - ELEVATION_TOL_DEG
    messages = []
    for i, row in enumerate(allocation.x):
        for j, count in enumerate(row):
            if not count:
                continue
            for g in instance.pair_stations[j]:
                if elev[g, i] < floor:
                    messages.append(
                        f"{instance.sat_ids[i]} serves pair {instance.pair_ids[j]} at "
                        f"{elev[g, i]:.6f} deg above {instance.station_ids[g]}"
                    )
    for i, k, j, count in allocation.y:
        if not count:
            continue
        a, b = instance.pair_stations[j]
        if elev[a, i] < floor or elev[b, k] < floor:
            messages.append(
                f"relay {instance.sat_ids[i]}->{instance.sat_ids[k]} for pair "
                f"{instance.pair_ids[j]} below the mask"
            )
        p, q = sat_xyz[i], sat_xyz[k]
        seg = q - p
        s = np.clip(-(p @ seg) / (seg @ seg), 0.0, 1.0) if seg @ seg > 0 else 0.0
        if np.linalg.norm(p + s * seg) < snapshot.earth_radius + ISL_CLEARANCE_M - 1e-6:
            messages.append(
                f"relay hop {instance.sat_ids[i]}->{instance.sat_ids[k]} cuts the Earth"
            )
    return messages


# ---------------------------------------------------------------------------
# the scheduling model, solved with HiGHS


class SlotModel:
    """The per-slot assignment problem over positive-rate links.

    Variables are the direct cells (i, j) with a positive rate followed by
    the relay triples (i, k, j) with a positive rate.  ``rows`` and
    ``caps`` hold one cap constraint per transmitter, reflector, receiver
    and pair that touches at least one variable.
    """

    def __init__(self, instance):
        omega = np.asarray(instance.omega, dtype=float)
        cells = np.argwhere(omega > 0)
        nu = instance.nu or {}
        triples = sorted(key for key, value in nu.items() if value > 0)
        self.keys = [("x", int(i), int(j)) for i, j in cells] + [
            ("y", i, k, j) for i, k, j in triples
        ]
        self.rate = np.array(
            [omega[i, j] for i, j in cells] + [nu[key] for key in triples], dtype=float
        )
        self.pair = np.array(
            [int(j) for _, j in cells] + [j for _, _, j in triples], dtype=int
        )
        n_sat = len(instance.sat_ids)
        n_gs = len(instance.station_ids)
        n_pair = len(instance.pair_ids)
        n = len(self.keys)
        tx = np.zeros((n_sat, n))
        refl = np.zeros((n_sat, n))
        pair = np.zeros((n_pair, n))
        for v, key in enumerate(self.keys):
            tx[key[1], v] = 1.0
            if key[0] == "y":
                refl[key[2], v] = 1.0
            pair[key[-1], v] = 1.0
        recv = np.zeros((n_gs, n))
        for j, (a, b) in enumerate(instance.pair_stations):
            recv[a] += pair[j]
            recv[b] += pair[j]
        rows = np.vstack([tx, refl, recv, pair])
        caps = np.array(
            list(instance.sat_caps)
            + list(instance.reflector_caps)
            + list(instance.gs_caps)
            + list(instance.pair_caps),
            dtype=float,
        )
        used = rows.any(axis=1)
        self.rows = rows[used]
        self.caps = caps[used]
        self.n_pair = n_pair

    def _maximize(self, columns, floor_rows=None) -> float:
        """HiGHS optimum over the variables picked by ``columns``.

        Without ``floor_rows`` the total rate; with them the largest
        lambda such that every row of ``floor_rows @ counts`` reaches it.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        n = int(columns.sum())
        if n == 0:
            return 0.0
        caps = self.rows[:, columns]
        if floor_rows is None:
            cost = -self.rate[columns]
            integrality = np.ones(n)
            constraints = [LinearConstraint(caps, -np.inf, self.caps)]
        else:
            # one continuous variable lambda after the integer counts
            cost = np.zeros(n + 1)
            cost[-1] = -1.0
            integrality = np.append(np.ones(n), 0)
            floor = np.hstack([floor_rows[:, columns], -np.ones((len(floor_rows), 1))])
            constraints = [
                LinearConstraint(np.hstack([caps, np.zeros((len(caps), 1))]), -np.inf, self.caps),
                LinearConstraint(floor, 0.0, np.inf),
            ]
        result = milp(
            cost,
            integrality=integrality,
            bounds=Bounds(0.0, np.inf),
            constraints=constraints,
            options={"mip_rel_gap": 0.0},
        )
        if result.status != 0:
            raise RuntimeError(f"HiGHS did not reach an optimum: {result.message}")
        return -result.fun

    def ratesum_optimum(self) -> float:
        """Highest aggregate rate any feasible allocation delivers."""
        return self._maximize(np.ones(len(self.keys), dtype=bool))

    def uncontended_optima(self) -> np.ndarray:
        """Per pair, the best rate with the whole network to itself."""
        return np.array(
            [self._maximize(self.pair == j) for j in range(self.n_pair)]
        )

    def maxmin_floor(self, optima: np.ndarray) -> float:
        """Largest lambda with every active pair at lambda of its optimum."""
        active = np.flatnonzero(optima > ZERO_RATE)
        if active.size == 0:
            return 0.0
        columns = np.isin(self.pair, active)
        floor_rows = np.zeros((active.size, len(self.keys)))
        for r, j in enumerate(active):
            mask = self.pair == j
            floor_rows[r, mask] = self.rate[mask] / optima[j]
        return self._maximize(columns, floor_rows)


def ratesum_violations(slot, optimum: float) -> list[str]:
    if abs(slot.aggregate_edr - optimum) <= RATE_REL_TOL * max(1.0, abs(optimum)):
        return []
    return [
        f"aggregate {slot.aggregate_edr!r} is not the HiGHS optimum "
        f"{optimum!r} (relative gap {(optimum - slot.aggregate_edr) / max(1.0, optimum):.3e})"
    ]


def maxmin_violations(slot, pair_ids, optima, lam_star, ratesum_opt) -> list[str]:
    """Smallest fractional rate over active pairs equals the max-min optimum."""
    messages = []
    fractions = [
        slot.per_pair_edr[pid] / optima[j]
        for j, pid in enumerate(pair_ids)
        if optima[j] > ZERO_RATE
    ]
    achieved = float(min(fractions)) if fractions else 0.0
    if abs(achieved - lam_star) > FLOOR_ABS_TOL:
        messages.append(
            f"fractional floor {achieved!r} differs from max-min "
            f"optimum {lam_star!r}"
        )
    if slot.aggregate_edr > ratesum_opt * (1.0 + RATE_REL_TOL) + RATE_REL_TOL:
        messages.append(
            f"aggregate {slot.aggregate_edr!r} exceeds the rate-sum "
            f"optimum {ratesum_opt!r}"
        )
    return messages


# ---------------------------------------------------------------------------
# whole-run conservation and the written files


def conservation_violations(report, slot_duration: float) -> list[str]:
    """Day totals are the slot rates times the slot length, summed."""
    messages = []
    for pid, total in report.per_pair_daily.items():
        expected = math.fsum(m.per_pair_edr[pid] * slot_duration for m in report.series)
        if not _close(total, expected, CONSERVATION_REL_TOL):
            messages.append(f"pair {pid}: daily total {total!r}, slots sum to {expected!r}")
    for m in report.series:
        if not _close(m.aggregate_edr, math.fsum(m.per_pair_edr.values()), RATE_REL_TOL):
            messages.append(f"slot {m.t}: aggregate is not the sum of its pair rates")
    served = sum(1 for v in report.per_pair_daily.values() if v > 0)
    if served != report.served_pair_count:
        messages.append(f"served pair count {report.served_pair_count}, totals give {served}")
    handovers = sum(m.handovers_since_prev for m in report.series)
    if handovers != report.total_handovers:
        messages.append(f"handover total {report.total_handovers}, slots sum to {handovers}")
    return messages


def readback_violations(report, out_dir: str) -> list[str]:
    """metrics.csv, per_pair.csv and report.json hold the report's numbers."""
    messages = []
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[:1] != [["t", "aggregate_edr", "connectivity", "handovers"]]:
        messages.append("metrics.csv: unexpected header")
    body = rows[1:]
    if len(body) != len(report.series):
        messages.append(f"metrics.csv: {len(body)} rows for {len(report.series)} slots")
    for row, m in zip(body, report.series):
        if (int(row[0]), float(row[1]), int(row[2]), int(row[3])) != (
            m.t, m.aggregate_edr, m.connectivity, m.handovers_since_prev
        ):
            messages.append(f"metrics.csv: row for slot {m.t} does not read back")
    with open(os.path.join(out_dir, "per_pair.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    written = {row[0]: float(row[1]) for row in rows[1:]}
    if written != report.per_pair_daily:
        messages.append("per_pair.csv: totals do not read back")
    with open(os.path.join(out_dir, "report.json")) as handle:
        payload = json.load(handle)
    if payload.get("per_pair_daily") != report.per_pair_daily:
        messages.append("report.json: per_pair_daily does not read back")
    for key, value in (
        ("num_slots", len(report.series)),
        ("served_pair_count", report.served_pair_count),
        ("total_handovers", report.total_handovers),
    ):
        if payload.get(key) != value:
            messages.append(f"report.json: {key} is {payload.get(key)!r}, expected {value!r}")
    return messages
