"""The greedy crossing order, recounting every candidate at every step: an
oracle for :func:`knotrank._tangle.scan_order`, which keeps the counts
up to date instead.
"""

from __future__ import annotations

from knotrank.diagram import Diagram


def scan_order_recounted(d: Diagram) -> list[int]:
    """Every starting crossing is tried; from each, the next crossing is
    the unscanned one with the most slots on open edges (ties: smallest
    index), recounted over the candidates' four slots at every step.  The
    order with the smallest (peak, total) open boundary wins."""
    n = len(d.crossings)
    if n == 0:
        return []
    incident: dict[int, list[int]] = {}
    for ci, tup in enumerate(d.crossings):
        for e in tup:
            incident.setdefault(e, []).append(ci)

    def simulate(start: int):
        open_edges: set[int] = set()
        done = [False] * n
        order = []
        peak = total = 0
        cur = start
        for _ in range(n):
            done[cur] = True
            order.append(cur)
            tup = d.crossings[cur]
            for e in set(tup):
                cnt = tup.count(e)
                if cnt == 2:
                    open_edges.discard(e)  # both ends here
                elif e in open_edges:
                    open_edges.remove(e)
                else:
                    open_edges.add(e)
            peak = max(peak, len(open_edges))
            total += len(open_edges)
            # next: maximize closing slots, then smallest index
            best = None
            for e in open_edges:
                for cj in incident[e]:
                    if done[cj]:
                        continue
                    s = sum(1 for x in d.crossings[cj] if x in open_edges)
                    key = (-s, cj)
                    if best is None or key < best[0]:
                        best = (key, cj)
            if best is None:
                for cj in range(n):
                    if not done[cj]:
                        best = (None, cj)
                        break
                if best is None:
                    break
            cur = best[1]
        return (peak, total), order

    best_cost, best_order = None, None
    for start in range(n):
        cost, order = simulate(start)
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    return best_order
