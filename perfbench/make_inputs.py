"""Regenerate the benchmark's frozen inputs and reference reports.

    python3 perfbench/make_inputs.py

Writes ``symunion_pool.pd``: the first POOL_SIZE distinct diagrams of
``random_symmetric_union(seed, 8, (1,))`` for seed = 0, 1, 2, ...,
sorted by (crossings, ``cycles_of`` calls of an f3 scan, name) so that
each consecutive pair holds two knots of similar cost.  Writes
``reference.json``: the checked report fields of every knot of every
workload.  Prints the pool's sha256, which ``run.py`` pins.  Takes about
two minutes on one core.
"""

from __future__ import annotations

import hashlib
import importlib
import json

import run

POOL_SIZE = 200
CROSSINGS = 8
TWISTS = (1,)


def scan_work(kr, d) -> int:
    """An exact cost proxy: ``cycles_of`` calls in one f3 scan."""
    tracer, *_ = run.traced_pass(kr, [d], ("f3",), False)
    return tracer.metrics()["cobordism.cycles_of_calls"]


def main() -> None:
    kr = run.import_knotrank()
    pool, seen = [], set()
    seed = 0
    while len(pool) < POOL_SIZE:
        d = kr.random_symmetric_union(seed, CROSSINGS, TWISTS)
        if d.pd_text not in seen:
            seen.add(d.pd_text)
            pool.append(kr.parse_pd(d.pd_text, name=f"su{CROSSINGS}_seed{seed}"))
        seed += 1

    fields, deformed = run.WORKLOADS["symunion-batch"]
    reports = {d.name: kr.compute_report(d, fields, deformed) for d in pool}
    pool.sort(key=lambda d: (len(d.crossings), scan_work(kr, d), d.name))
    header = (f"# knotrank benchmark pool: random_symmetric_union(seed, {CROSSINGS}, "
              f"{TWISTS}) for seed in range({seed}), first {POOL_SIZE} distinct,\n"
              "# sorted by (crossings, cycles_of calls of an f3 scan, name); "
              "written by perfbench/make_inputs.py\n")
    text = header + importlib.import_module("knotrank.diagram").format_diagram_file(pool)
    run.POOL_FILE.write_text(text)

    reference = {"symunion-batch": {
        d.name: run.compared(reports[d.name].record()) for d in pool}}
    corpus = kr.load_corpus()
    for workload in ("ribbon", "ribbon-deformed"):
        fields, deformed = run.WORKLOADS[workload]
        reference[workload] = {
            name: run.compared(kr.compute_report(corpus[name], fields, deformed).record())
            for name in run.RIBBON_NAMES}
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
