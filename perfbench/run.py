#!/usr/bin/env python3
"""cubeseg benchmark: one seeded workload, checked, timed end to end and per layer.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run sets up (import, input construction, warm-up), then repeats timed
passes over the workload's fixed item list until ``--seconds`` of passes
have been measured. Every item's output is checked after its pass (see
references.py and layers.py). A short fixed reference loop
(``calibrate``) runs before every item and after the last one, and every
time is divided by the host speed that the loop measures around it, so
times read as seconds at a fixed reference speed (``CALIBRATION_REF_S``).
Wall time is the median untraced pass; p95 item latency and median CLI
latency are taken over every item latency of every untraced pass. Set-up is
timed again after every pass, each time on a fresh import, and its
median is reported.
With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics are medians over the traced passes of spans recorded
around each item and around each call into a layer; the spans are
written to ``.perfbench/trace-<workload>-<seed>.jsonl`` at exit.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). The line before it records the
seed, a hash of the generated inputs, a hash of the work counts, the
error rate and the sample counts. Exit code 0 means every output was
correct and every count repeated exactly across passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from layers import KINDS, Context, layer_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up is timed this many times before the first pass and again after
# every pass, so that its median samples the whole run.
SETUPS_FIRST = 3
SETUPS_PER_PASS = 2
# The time calibrate() takes at the reference speed; a time t measured
# while calibrate() takes c seconds is reported as t * CALIBRATION_REF_S / c.
CALIBRATION_REF_S = 0.001
# Each item is scaled by the median of this many calibrations around it,
# half before and half after, so one disturbed calibration does not count.
CALIBRATION_WINDOW = 4
LAYERS = ("weights", "cube", "bijection", "recursion", "oracle", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p95": "ms",
    "cli_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# Work counters of each metric group, in the order they are reported.
COUNTERS = {
    "weights.prefix_hq": ("calls", "k_sum"),
    "cube.bitparallel": ("calls", "free_sets", "computed_bytes"),
    "cube.naive": ("calls", "candidates"),
    "cube.three_term": ("calls",),
    "cube.io": ("bytes",),
    "bijection.find": ("calls", "pairs", "found"),
    "bijection.verify": ("rejected",),
    "bijection.inequality": ("calls",),
    "recursion.build_table": ("calls", "candidates"),
    "recursion.hypercubic": ("calls", "k_sum"),
    "recursion.counterexample": ("records",),
    "oracle.brute_force": ("calls", "subsets_scanned"),
    "oracle.is_optimal": ("calls",),
    "cli.run": ("calls", "bytes_out", "nonzero_exit"),
}
BYTE_COUNTERS = ("computed_bytes", "bytes", "bytes_out")
# Time per unit of work: metric -> (group, counter, scale, unit).
RATES = {
    "weights.prefix_hq.ns_per_k": ("weights.prefix_hq", "k_sum", 1e9, "ns"),
    "oracle.brute_force.us_per_subset": ("oracle.brute_force", "subsets_scanned", 1e6, "us"),
}
TRACE = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.item_self_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for group, counters in COUNTERS.items():
        units[f"{group}.busy_s"] = "s"
        for c in counters:
            units[f"{group}.{c}"] = "B" if c in BYTE_COUNTERS else "count"
    for name, (_, _, _, unit) in RATES.items():
        units[name] = unit
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(TRACE)
    return units


class Item:
    """One prepared call: the library function, its arguments, how to invoke it."""

    __slots__ = ("kind", "fn", "args", "invoke", "traced")

    def __init__(self, kind, fn, args):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.invoke = KINDS[kind].invoke
        self.traced = None


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, item, pass]."""

    def __init__(self):
        self.spans: list = []
        self.parent = -1
        self.item = -1
        self.pass_no = 0

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, self.parent, self.item, self.pass_no])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, fn, name: str):
        def traced(*args):
            index = self.open(name)
            try:
                return fn(*args)
            finally:
                self.close(index)
        return traced


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The host's speed switches between states up to 1.8x apart that last
    from a fraction of a second to minutes, and the whole interpreter
    slows with it (CPU time tracks wall time), so the same work timed
    around an item measures the speed the item ran at. The work mixes
    small-int and dict operations, string formatting and big-int bit
    operations, about a third of the time each, because these slow down
    by different factors (1.4x to 1.6x) and the library's items by
    factors in between. It uses no library code: a change to the program
    cannot move it.
    """
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(900):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 127] = table.get(i & 127, 0) + (i >> 2)
    rows = []
    for i in range(300):
        row = {"k": i, "v": acc >> (i & 7)}
        rows.append(f"{row['k']},{row['v']:x}")
        if len(rows) > 16:
            acc ^= len(",".join(rows))
            rows.clear()
    big = (1 << 30000) - acc
    for i in range(15):
        shifted = big >> (i + 1)
        acc += (big & shifted).bit_count() + (big ^ (shifted << 3)).bit_count()
    return time.perf_counter() - start


def import_cubeseg():
    """A fresh import of the package under src/, with its CLI module."""
    for name in [m for m in sys.modules if m == "cubeseg" or m.startswith("cubeseg.")]:
        del sys.modules[name]
    cs = importlib.import_module("cubeseg")
    importlib.import_module("cubeseg.cli")
    if not Path(cs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cubeseg imported from {cs.__file__}, not from {SRC}")
    return cs


def set_up(raw: list, work: str, warm: list):
    """Import, build the library inputs and warm up; returns (seconds, cs, items).

    The seconds are at the reference speed, measured by calibrations
    before and after.
    """
    gc.collect()
    before = [calibrate() for _ in range(CALIBRATION_WINDOW // 2)]
    start = time.perf_counter()
    cs = import_cubeseg()
    items = []
    for kind, args in raw:
        k = KINDS[kind]
        items.append(Item(kind, k.function(cs), k.prepare(cs, args, work)))
    out: list = [None] * len(items)
    for i in warm:
        try:
            out[i] = items[i].invoke(items[i].fn, items[i].args, out)
        except Exception:  # the timed passes record the failure
            pass
    seconds = time.perf_counter() - start
    after = [calibrate() for _ in range(CALIBRATION_WINDOW // 2)]
    return seconds * CALIBRATION_REF_S / statistics.median(before + after), cs, items


def run_pass(items: list, tracer: Tracer | None):
    """One timed pass; returns (latencies s, outputs, errors).

    Latencies are at the reference speed; the pass's wall time is their sum.
    """
    n = len(items)
    out: list = [None] * n
    latency = [0] * n
    errors: list = [None] * n
    # Item i runs between calibrations[i + half - 1] and [i + half], in
    # the middle of calibrations[i:i + CALIBRATION_WINDOW].
    half = CALIBRATION_WINDOW // 2
    calibrations = [calibrate() for _ in range(half - 1)]
    clock = time.perf_counter_ns
    for i, item in enumerate(items):
        calibrations.append(calibrate())
        if tracer is not None:
            tracer.item = i
            tracer.parent = -1
            span = tracer.open("item")
            tracer.parent = span
        t0 = clock()
        try:
            out[i] = item.invoke(item.traced if tracer else item.fn, item.args, out)
        except Exception as exc:  # counted as a failed item
            errors[i] = exc
        latency[i] = clock() - t0
        if tracer is not None:
            tracer.close(span)
    calibrations += [calibrate() for _ in range(half)]
    scale = [CALIBRATION_REF_S / 1e9 / statistics.median(calibrations[i:i + CALIBRATION_WINDOW])
             for i in range(n)]
    return [ns * f for ns, f in zip(latency, scale)], out, errors


def check_pass(raw: list, out: list, errors: list, ctx: Context):
    """Check every output; returns (counts, failed item indices)."""
    counts = {f"{g}.{c}": 0 for g, names in COUNTERS.items() for c in names}
    counts.update({f"{layer}.errors": 0 for layer in LAYERS})
    failed = []
    for i, (kind, args) in enumerate(raw):
        k = KINDS[kind]
        ok = errors[i] is None
        if ok:
            try:
                ok = bool(k.check(args, out[i], ctx))
                for name, value in k.counts(args, out[i]).items():
                    counts[f"{k.group}.{name}"] += int(value)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            failed.append(i)
            counts[f"{layer_of(kind)}.errors"] += 1
    return counts, failed


def canonical(value) -> str:
    """A stable text form of plain data; ints in hex, which has no length limit."""
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if isinstance(value, int):
        return hex(value)
    return repr(value)


def cli_items(raw: list) -> list:
    return [i for i, (kind, _) in enumerate(raw) if kind == "cli.run"]


def p95(values: list) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def span_metrics(spans: list, base: int) -> dict:
    """busy_s per group, self_s per layer and harness self time of one traced pass.

    ``spans`` are the pass's spans, the first of them at index ``base``
    of the whole trace.
    """
    group_of_span = {k.span: k.group for k in KINDS.values()}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent - base] += end - start
    busy = {g: 0 for g in COUNTERS}
    self_ns = {layer: 0 for layer in LAYERS}
    item_self = 0
    for j, (name, start, end, parent, item, _) in enumerate(spans):
        own = end - start - child_ns[j]
        if name == "item":
            item_self += own
        else:
            busy[group_of_span[name]] += end - start
            self_ns[layer_of(name)] += own
    metrics = {f"{g}.busy_s": ns / 1e9 for g, ns in busy.items()}
    metrics.update({f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()})
    metrics["trace.item_self_s"] = item_self / 1e9
    metrics["trace.spans"] = len(spans)
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="pass time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


class Measurement:
    """What the passes of one run measured."""

    def __init__(self):
        self.walls = {False: [], True: []}  # pass wall seconds, by traced
        self.latencies: list = []  # item latencies of every untraced pass
        self.elapsed = 0.0  # measured seconds of all passes, unscaled
        self.span_runs: list = []  # span_metrics of every traced pass
        self.counts: list = []  # work counts of every pass
        self.failed = 0
        self.attempted = 0


def measure(raw, items, ctx, seconds, tracer, setups) -> Measurement:
    """Timed passes until they have taken ``seconds``; checks each pass.

    With a tracer, untraced and traced passes alternate, starting
    untraced, until there is at least one of each. ``setups()`` runs
    after every pass and times set-up on a fresh import.
    """
    m = Measurement()
    traced = False
    while True:
        gc.collect()
        if tracer:
            tracer.pass_no += 1
            first_span = len(tracer.spans)
        start = time.perf_counter()
        latency, out, errors = run_pass(items, tracer if traced else None)
        m.elapsed += time.perf_counter() - start
        m.attempted += len(items)
        counts, failed = check_pass(raw, out, errors, ctx)
        del out
        for i in failed:
            err = errors[i]
            print(f"item {i} {raw[i][0]} failed" + (f": {err!r}" if err else ""),
                  file=sys.stderr)
        m.failed += len(failed)
        m.counts.append(counts)
        setups()
        m.walls[traced].append(sum(latency))
        if traced:
            m.span_runs.append(span_metrics(tracer.spans[first_span:], first_span))
        else:
            m.latencies.append(latency)
        done = m.elapsed >= seconds
        if tracer:
            traced = not traced
            done = done and bool(m.walls[True])
        if done:
            return m


def per_layer_values(m: Measurement) -> dict:
    """Medians over the traced passes, plus the counts and derived rates."""
    values = {name: statistics.median(run[name] for run in m.span_runs) for name in m.span_runs[0]}
    values["trace.spans"] = m.span_runs[0]["trace.spans"]  # the same in every pass
    values.update(m.counts[0])
    for name, (group, counter, scale, _) in RATES.items():
        values[name] = values[f"{group}.busy_s"] * scale / max(1, values[f"{group}.{counter}"])
    values["trace.wall_s"] = statistics.median(m.walls[True])
    values["trace.untraced_wall_s"] = statistics.median(m.walls[False])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, item, pass_no in tracer.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "item": item, "pass": pass_no}) + "\n")


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "cubeseg" / "__init__.py").is_file():
        print(f"error: no cubeseg package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    raw, warm = workloads.generate(args.workload, args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    work = str(OUT / f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times = []
        for _ in range(SETUPS_FIRST):
            seconds, cs, items = set_up(raw, work, warm)
            setup_times.append(seconds)

        def setups():
            # Later set-ups import a fresh copy; the items keep calling theirs.
            setup_times.extend(set_up(raw, work, warm)[0] for _ in range(SETUPS_PER_PASS))

        emitted = {
            a[a.index("--emit-set") + 1]: int(a[a.index("--k") + 1])
            for kind, a in raw if kind == "cli.run" and "--emit-set" in a
        }
        tracer = Tracer() if args.trace else None
        if tracer:
            for item in items:
                item.traced = tracer.wrap(item.fn, KINDS[item.kind].span)
        m = measure(raw, items, Context(cs, work, emitted), args.seconds, tracer, setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    repeat = all(c == m.counts[0] for c in m.counts)
    if not repeat:
        print("error: work counts differ between passes", file=sys.stderr)
    correct = m.failed == 0 and repeat
    if tracer:
        values, units = per_layer_values(m), per_layer_units()
        write_spans(tracer, OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(m.walls[False]),
            "item_ms_p95": p95([s for pass_s in m.latencies for s in pass_s]) * 1e3,
            "cli_ms_p50": statistics.median(
                pass_s[i] for pass_s in m.latencies for i in cli_items(raw)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    counts_json = json.dumps(m.counts[0], sort_keys=True).encode()
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(canonical(raw).encode()).hexdigest(),
        "counts_sha256": hashlib.sha256(counts_json).hexdigest(),
        "counts_repeat": repeat,
        "items_per_pass": len(items),
        "measured_s": m.elapsed,
        "pass_wall_s": m.walls[False],
        "traced_pass_wall_s": m.walls[True],
        "samples": {"item_ms_p95": len(items) * len(m.latencies),
                    "cli_ms_p50": len(cli_items(raw)) * len(m.latencies)},
        "setup_s_samples": len(setup_times),
        "error_rate": {"value": m.failed / m.attempted, "unit": "ratio"},
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
