"""The benchmark's exact counters repeat exactly, across runs and across
string-hash seeds.

    python3 -m pytest -q perfbench/test_perfbench_counters.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# a traced pass over a small slice of two workloads' inputs, in a fresh
# interpreter so that PYTHONHASHSEED takes effect
PROBE = """
import json
import run
kr = run.import_knotrank()
diagrams = (run.load_inputs("symunion-batch", 7)[:8]
            + [kr.load_corpus()["19nh_000129633"]])
tracer, *_ = run.traced_pass(kr, diagrams, ("f3",), True)
metrics = tracer.metrics()
print(json.dumps({name: metrics[name] for name in run.EXACT_COUNTERS}))
"""


def counters(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=BENCH_DIR, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_exact_counters_repeat():
    first = counters(0)
    assert first["cobordism.cycles_of_calls"] > first["cobordism.cycles_of_misses"] > 0
    assert first["tangle.total_boundary"] >= first["tangle.peak_boundary"] > 0
    assert counters(0) == first
    assert counters(1) == first
