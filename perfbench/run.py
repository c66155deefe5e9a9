"""Benchmark of the knotrank batch scan.

Runs one workload through the public ``knotrank.scanner.scan`` and
``render_jsonl`` path, checks every report against the reference committed
beside this file, and prints one JSON result line as the last line of
standard output:

    python3 perfbench/run.py --workload ribbon --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
its times are rescaled to a reference machine speed by a fixed kernel timed
inside them (``SpeedProbe``), and the wall times are printed beside them.
``--trace 1`` wraps the calls into each knotrank layer from this file and
prints the per-layer metrics.  Workloads and metrics are described in
``perfbench/README.md``.  Exits non-zero when the knotrank sources are
missing or when any report is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POOL_FILE = BENCH_DIR / "symunion_pool.pd"
POOL_SHA256 = "659651cd3b7b32f4b2c3e540290f7b08bab480259ad179739559e6157e04209d"
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_FIELDS = ("f2", "f3", "f211", "q")
RIBBON_NAMES = ("18nh_00159590", "18nh_00752242", "19nh_000129633",
                "19nh_000305767", "symunion24")
# workload -> (fields, with_deformed)
WORKLOADS = {
    "ribbon": (DEFAULT_FIELDS, False),
    "ribbon-deformed": (("q",), True),
    "symunion-batch": (DEFAULT_FIELDS, False),
}
SETUP_REPEATS = 11
PARSE_REPEATS = 5
# speed kernel: matrix size and prime, seconds between chunks while timing,
# and one chunk's time at the reference speed (the median chunk time inside
# the passes on the 2-core Intel Xeon VM the benchmark was tuned on, so that
# rescaled times read close to wall times there)
CAL_SIZE = 110
CAL_PRIME = 32003
CAL_PERIOD_S = 0.5
CAL_REF_S = 0.035

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"khovanov.pair_s.{f}": "s" for f in DEFAULT_FIELDS},
    "khovanov.deformed_s.q": "s",
    "cobordism.cycles_of_calls": "count",
    "cobordism.cycles_of_misses": "count",
    "cobordism.cycles_of_hit_ratio": "ratio",
    "tangle.peak_boundary": "count",
    "tangle.total_boundary": "count",
    "tangle.scan_order_s": "s",
    "alexander.poly_s": "s",
    "jones.poly_s": "s",
    "arf.routes_s": "s",
    "scanner.report_s": "s",
    "scanner.render_s": "s",
    "scanner.self_s": "s",
    "diagram.parse_s": "s",
    "trace.overhead_frac": "ratio",
}
EXACT_COUNTERS = ("cobordism.cycles_of_calls", "cobordism.cycles_of_misses",
                  "tangle.peak_boundary", "tangle.total_boundary")


# ---------------------------------------------------------------------------
# inputs and reference


def import_knotrank():
    if not (SRC / "knotrank" / "__init__.py").is_file():
        raise SystemExit(f"knotrank sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("knotrank")


def load_pool(kr):
    """The frozen symmetric-union pool, after checking its hash."""
    data = POOL_FILE.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != POOL_SHA256:
        raise SystemExit(f"{POOL_FILE.name}: sha256 {digest} != {POOL_SHA256}")
    return kr.parse_diagram_file(data.decode())


def load_inputs(workload: str, seed: int):
    """Import knotrank and build the workload's diagrams from the seed.

    ``symunion-batch`` takes one knot of each consecutive pair in the pool,
    which is sorted by cost, so every seed draws the same cost mix.  The
    ribbon workloads always hold the same five knots; the seed orders them.
    """
    kr = import_knotrank()
    rng = random.Random(seed)
    if workload == "symunion-batch":
        pool = load_pool(kr)
        diagrams = [rng.choice(pool[i:i + 2]) for i in range(0, len(pool), 2)]
    else:
        corpus = kr.load_corpus()
        diagrams = [corpus[name] for name in RIBBON_NAMES]
    rng.shuffle(diagrams)
    return diagrams


def compared(record: dict) -> dict:
    """The report fields checked against the reference.

    ``flag_*`` and the summary are left out on purpose: they encode the
    conjectures' bookkeeping, which may change without the invariants
    changing.
    """
    return {k: v for k, v in record.items()
            if k in ("det", "signed_det", "arf")
            or k.startswith(("khr_", "kh_", "deformed_"))}


def rank_checks_hold(record: dict) -> bool:
    """Reduced rank >= det and rank = det (mod 2), for every field."""
    det = record["det"]
    ranks = [v for k, v in record.items()
             if k.startswith("khr_") and k.count("_") == 1]
    return bool(ranks) and all(r >= det and (r - det) % 2 == 0 for r in ranks)


def failed_knots(kr, text: str, expected: dict) -> list[str]:
    """Names of the knots whose report is an error, differs from the
    reference, or breaks the rank checks."""
    records, _ = kr.parse_report_jsonl(text)
    bad = []
    for rec in records:
        if ("error" in rec or compared(rec) != expected.get(rec["name"])
                or not rank_checks_hold(rec)):
            bad.append(rec["name"])
    return bad


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Times a fixed pure-Python kernel to track the machine's speed.

    On the shared 2-core host this benchmark was tuned on, the speed of a
    core moves by 20-40% and stays moved for seconds to minutes, which no
    median inside a run removes.  The kernel (rank mod p of a fixed sparse
    matrix by row elimination on dicts: integer and dict work like the
    Khovanov scan's) uses no knotrank code, so a change to knotrank cannot
    move it.  While ``ticking`` is active a SIGALRM handler runs one chunk
    every ``CAL_PERIOD_S`` inside the timed code, so the chunks sample the
    machine states that the work around them meets.
    """

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [{j: rng.randrange(1, CAL_PRIME)
                        for j in rng.sample(range(CAL_SIZE), 7)}
                       for _ in range(CAL_SIZE)]
        self.samples: list[float] = []
        self.chunk()                # untimed: warm the kernel's code paths
        self.samples.clear()

    def chunk(self) -> float:
        """Time one pass of the kernel and keep the sample."""
        # the kernel's allocations must not start a collection of the
        # program's objects inside the chunk
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            rows = [dict(r) for r in self.matrix]
            for col in range(CAL_SIZE):
                pivot = next((r for r in rows if col in r), None)
                if pivot is None:
                    continue
                rows.remove(pivot)
                inv = pow(pivot[col], CAL_PRIME - 2, CAL_PRIME)
                for r in rows:
                    c = r.get(col)
                    if c:
                        f = c * inv % CAL_PRIME
                        for k, v in pivot.items():
                            nv = (r.get(k, 0) - f * v) % CAL_PRIME
                            if nv:
                                r[k] = nv
                            else:
                                del r[k]
            dt = time.perf_counter() - t0
        finally:
            if gc_was_on:
                gc.enable()
        self.samples.append(dt)
        return dt

    @contextlib.contextmanager
    def ticking(self):
        """Run a chunk every ``CAL_PERIOD_S`` of wall time while active."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.chunk())
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def at_reference_speed(seconds: float, samples) -> float:
    """``seconds`` rescaled from the speed the kernel ``samples`` show to
    the reference speed, at which one chunk takes ``CAL_REF_S``."""
    return seconds * CAL_REF_S / statistics.fmean(samples)


# ---------------------------------------------------------------------------
# untraced measurement


def measure(kr, diagrams, workload: str, seconds: float):
    """Whole scan+render passes until the next one would overrun ``seconds``.

    Each pass's time leaves out the kernel chunks that ran inside it and is
    rescaled by them, plus one chunk right after it, to the reference speed.
    Returns (rescaled pass times, wall pass times, per-knot times, rendered
    outputs).
    """
    fields, deformed = WORKLOADS[workload]
    probe = SpeedProbe()
    passes, walls, knot_times, outputs = [], [], [], []
    start = time.perf_counter()
    while True:
        first = len(probe.samples)
        t0 = time.perf_counter()
        with probe.ticking():
            reports = kr.scan(diagrams, fields, jobs=1, with_deformed=deformed)
            text = kr.render_jsonl(reports)
        t1 = time.perf_counter()
        wall = t1 - t0 - sum(probe.samples[first:])
        probe.chunk()
        passes.append(at_reference_speed(wall, probe.samples[first:]))
        walls.append(wall)
        knot_times.extend(r.time_ms / 1000 for r in reports)
        outputs.append(text)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes, walls, knot_times, outputs


def knot_percentiles(knot_times) -> dict:
    """Per-knot time p50, and p90 where at least ten samples lie beyond it.

    Reported beside the result, not as metrics: on the five-knot workloads
    the median is one knot's time, which spreads too much between runs to
    hold a regression bound.
    """
    p90 = statistics.quantiles(knot_times, n=10, method="inclusive")[8]
    beyond = sum(t > p90 for t in knot_times)
    return {"p50": statistics.median(knot_times),
            "p90": p90 if beyond >= 10 else None,
            "samples": len(knot_times), "beyond_p90": beyond}


def setup_probe(workload: str, seed: int) -> tuple[float, list[float]]:
    """One import+load in this interpreter, with a speed-kernel chunk timed
    just before and just after it."""
    probe = SpeedProbe()
    probe.chunk()
    t0 = time.perf_counter()
    load_inputs(workload, seed)
    t1 = time.perf_counter()
    probe.chunk()
    return t1 - t0, probe.samples


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median import+load time over fresh interpreters, rescaled to the
    reference speed, and the median wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        wall, samples = json.loads(out.stdout.splitlines()[-1])
        scaled.append(at_reference_speed(wall, samples))
        walls.append(wall)
    return statistics.median(scaled), statistics.median(walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# traced run


class Tracer:
    """Spans around calls into knotrank's layers, kept in memory.

    A span is ``[name, parent index, start, end]``; the top span of each
    knot is its ``scanner.report`` span.  Exact counters are read at the
    same boundaries: the ``cycles_of`` cache statistics after each
    Khovanov scan (the scan clears the cache when it starts), and the
    crossing order each knot's first scan received from ``scan_order``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cycles = Counter()
        self.orders: dict = {}      # report span index -> (diagram, order)

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before:
                before(args)
            label = name(args) if callable(name) else name
            idx = len(self.spans)
            self.spans.append([label, self.stack[-1] if self.stack else None,
                               time.perf_counter(), None])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if after:
                after(args, result)
            return result
        return traced

    def _read_cycles(self, args, result):
        info = self._cycles_of.cache_info()
        self.cycles["calls"] += info.hits + info.misses
        self.cycles["misses"] += info.misses

    def _record_order(self, args, order):
        if self.stack:
            self.orders.setdefault(self.stack[0], (args[0], order))

    @contextlib.contextmanager
    def patched(self, patches):
        """Replace each ``module.attr`` by a traced wrapper while active.

        ``patches`` holds ``(module name, attr, span name, before, after)``.
        """
        saved = []
        try:
            for m, attr, name, before, after in patches:
                module = importlib.import_module(f"knotrank.{m}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, before, after))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def installed(self):
        """Wrap the layer entry points that the scanner reaches."""
        self._cycles_of = importlib.import_module("knotrank.cobordism").cycles_of
        clear = lambda args: self._cycles_of.cache_clear()  # noqa: E731
        field_of = lambda prefix: lambda args: f"{prefix}.{args[1].name}"  # noqa: E731
        return self.patched([
            ("scanner", "compute_report", "scanner.report", None, None),
            ("scanner", "alexander_polynomial", "alexander.poly", None, None),
            ("arf", "alexander_polynomial", "alexander.poly", None, None),
            ("scanner", "arf", "arf.routes", None, None),
            ("arf", "jones", "jones.poly", None, None),
            ("jones", "jones", "jones.poly", None, None),
            ("jones", "scan_order", "tangle.scan_order", None, None),
            ("khovanov", "scan_order", "tangle.scan_order", None,
             self._record_order),
            ("scanner", "khovanov_pair", field_of("khovanov.pair"), clear,
             self._read_cycles),
            ("scanner", "deformed_module", field_of("khovanov.deformed"), clear,
             self._read_cycles),
        ])

    def metrics(self) -> dict:
        total = defaultdict(float)
        child = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0

        def self_time(name):
            return sum(t1 - t0 - child[i]
                       for i, (n, _, t0, t1) in enumerate(self.spans) if n == name)

        peak = boundary = 0
        for d, order in self.orders.values():
            p, b = boundary_sizes(d, order)
            peak += p
            boundary += b
        calls = self.cycles["calls"]
        out = {f"khovanov.pair_s.{f}": total[f"khovanov.pair.{f}"]
               for f in DEFAULT_FIELDS}
        out.update({
            "khovanov.deformed_s.q": total["khovanov.deformed.q"],
            "cobordism.cycles_of_calls": calls,
            "cobordism.cycles_of_misses": self.cycles["misses"],
            "cobordism.cycles_of_hit_ratio":
                (calls - self.cycles["misses"]) / calls if calls else 0.0,
            "tangle.peak_boundary": peak,
            "tangle.total_boundary": boundary,
            "tangle.scan_order_s": total["tangle.scan_order"],
            "alexander.poly_s": total["alexander.poly"],
            "jones.poly_s": total["jones.poly"],
            "arf.routes_s": self_time("arf.routes"),
            "scanner.report_s": total["scanner.report"],
            "scanner.render_s": total["scanner.render"],
            "scanner.self_s": self_time("scanner.report"),
        })
        return out


def boundary_sizes(d, order) -> tuple[int, int]:
    """Peak and summed open-boundary size along a crossing order."""
    open_edges: set = set()
    peak = total = 0
    for ci in order:
        tup = d.crossings[ci]
        for e in set(tup):
            if tup.count(e) == 1:
                open_edges ^= {e}
        peak = max(peak, len(open_edges))
        total += len(open_edges)
    return peak, total


def traced_pass(kr, diagrams, fields, deformed: bool):
    """One pass with each knot scanned untraced and traced, in alternating
    order.  Returns (tracer, untraced seconds, traced seconds, output)."""
    tracer = Tracer()
    plain = traced = 0.0
    reports = []
    for i, d in enumerate(diagrams):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            ctx = tracer.installed() if with_trace else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                rep = kr.scan([d], fields, jobs=1, with_deformed=deformed)
                dt = time.perf_counter() - t0
            if with_trace:
                traced += dt
                reports.extend(rep)
            else:
                plain += dt
    render = tracer.wrap("scanner.render", kr.render_jsonl)
    return tracer, plain, traced, render(reports)


def parse_seconds(workload: str, seed: int) -> float:
    """Median time spent in ``parse_pd`` while loading the inputs."""
    times = []
    for _ in range(PARSE_REPEATS):
        tracer = Tracer()
        with tracer.patched([(m, "parse_pd", "diagram.parse", None, None)
                             for m in ("diagram", "corpus")]):
            load_inputs(workload, seed)
        times.append(sum(t1 - t0 for _, _, t0, t1 in tracer.spans))
    return statistics.median(times)


def run_traced(kr, diagrams, workload: str, seed: int, seconds: float):
    """Paired passes until the next one would overrun ``seconds``; layer
    times are medians over passes, counters come from the first pass."""
    passes, outputs = [], []
    start = time.perf_counter()
    while True:
        tracer, plain, traced, text = traced_pass(kr, diagrams,
                                                  *WORKLOADS[workload])
        passes.append((tracer.metrics(), traced / plain - 1))
        outputs.append(text)
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed / len(passes)) > seconds:
            break
    first = passes[0][0]
    metrics = {name: (first[name] if name in EXACT_COUNTERS else
                      statistics.median(p[name] for p, _ in passes))
               for name in first}
    metrics["trace.overhead_frac"] = statistics.median(o for _, o in passes)
    metrics["diagram.parse_s"] = parse_seconds(workload, seed)
    return metrics, outputs


# ---------------------------------------------------------------------------
# provenance


def stamp() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one import+load and print the seconds")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    kr = import_knotrank()
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    diagrams = load_inputs(args.workload, args.seed)
    expected = json.loads(REFERENCE_FILE.read_text())[args.workload]

    info = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        layer, outputs = run_traced(kr, diagrams, args.workload, args.seed,
                                     args.seconds)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        passes, walls, knot_times, outputs = measure(kr, diagrams,
                                                     args.workload, args.seconds)
        values = {
            "setup_s": setup[0],
            "batch_s": statistics.median(passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        info.update(passes=len(passes), knot_s=knot_percentiles(knot_times),
                    wall_s={"setup": setup[1], "batch": statistics.median(walls)})

    bad = [name for text in outputs for name in failed_knots(kr, text, expected)]
    attempted = len(diagrams) * len(outputs)
    correct = not bad
    if args.workload == "symunion-batch" and not args.trace:
        # the process-pool path must render the same bytes; not timed
        fields, deformed = WORKLOADS[args.workload]
        pooled = kr.render_jsonl(kr.scan(diagrams, fields, jobs=2,
                                         with_deformed=deformed))
        info["jobs2_identical"] = pooled == outputs[0]
        correct = correct and info["jobs2_identical"]
    info.update(failed_frac=len(bad) / attempted, failed_knots=sorted(set(bad)),
                stamp=stamp())
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
