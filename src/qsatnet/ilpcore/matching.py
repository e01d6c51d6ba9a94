"""Maximum-weight flow through one bipartite layer: the uncontended
per-pair best of the rate-fair policies."""

from __future__ import annotations

import math

from ..errors import StructuralError


def max_weight_flow(supply, demand, arcs, limit=math.inf) -> dict[tuple[int, int], int]:
    """Integral maximum-weight flow from left to right nodes.

    Left node ``i`` sends at most ``supply[i]`` units, right node ``r``
    takes at most ``demand[r]`` (possibly infinite), arc ``(i, r)`` carries
    units at ``arcs[i, r]`` each, and at most ``limit`` units flow in all.
    Each round pushes units along the best augmenting path, found by
    Bellman-Ford on the residual graph, until the limit or the first path
    that gains nothing (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    ch. 9).  A path grows only by a node it does not hold, so rounding can
    never make a cycle look profitable.  Returns the positive units per
    arc, in arc order.
    """
    for arc, weight in arcs.items():
        if not math.isfinite(weight):
            raise StructuralError(f"arc {arc}: weight {weight} must be finite")
    flow = dict.fromkeys(arcs, 0)
    sent = dict.fromkeys(sorted(i for i, _ in arcs), 0)
    taken = dict.fromkeys(sorted(r for _, r in arcs), 0)
    total = 0
    while total < limit:
        # the best path found to each node, as (gain, nodes), with left
        # node i written (0, i) and right node r written (1, r)
        label = {(0, i): (0.0, ((0, i),)) for i in sent if sent[i] < supply[i]}
        # the residual arcs: every arc forward, and back where it carries units
        steps = [((0, i), (1, r), w) for (i, r), w in arcs.items()]
        steps += [((1, r), (0, i), -w) for (i, r), w in arcs.items() if flow[i, r]]
        for _ in range(len(sent) + len(taken)):
            changed = False
            for tail, head, gain in steps:
                if tail in label and head not in label[tail][1]:
                    value = label[tail][0] + gain
                    if head not in label or value > label[head][0]:
                        label[head] = (value, label[tail][1] + (head,))
                        changed = True
            if not changed:
                break
        ends = [label[1, r] for r in taken if (1, r) in label and taken[r] < demand[r]]
        gain, path = max(ends, key=lambda end: end[0], default=(0.0, ()))
        if gain <= 0:
            break
        # the path alternates left and right nodes, from a left to a right
        nodes = [node for _, node in path]
        forward = list(zip(nodes[0::2], nodes[1::2]))
        backward = list(zip(nodes[2::2], nodes[1::2]))
        first, last = nodes[0], nodes[-1]
        room = (limit - total, supply[first] - sent[first], demand[last] - taken[last])
        units = min(*room, *(flow[arc] for arc in backward))
        for arc in forward:
            flow[arc] += units
        for arc in backward:
            flow[arc] -= units
        sent[first] += units
        taken[last] += units
        total += units
    return {arc: units for arc, units in flow.items() if units}
