"""``perfbench/run.py --trace 1`` wraps knotrank functions by module and
name; a rename that one of its patch points misses fails here."""

import importlib.util
from pathlib import Path

from knotrank import scanner
from knotrank.corpus import load_corpus

RUN_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_FILE)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_trace_reaches_every_layer():
    tracer = load_run().Tracer()
    with tracer.installed():
        scanner.compute_report(load_corpus()["6_2"], ("f2",))
    names = {name for name, *_ in tracer.spans}
    assert {"scanner.report", "alexander.poly", "jones.poly",
            "tangle.scan_order", "khovanov.pair.f2"} <= names
    assert tracer.metrics()["cobordism.cycles_of_calls"] > 0
