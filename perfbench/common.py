"""Shared pieces of the workloads: checks, timing statistics, result shape."""

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")


class Checks:
    """Outcome of every correctness check of one run, in the order made.

    ``digest`` hashes the names, outcomes and checked values, so a traced
    and an untraced run with one seed can be compared exactly.
    """

    def __init__(self):
        self.results = []

    def expect(self, name, ok, value=None):
        ok = bool(ok)
        self.results.append((name, ok, repr(value)))
        if not ok:
            print(f"check failed: {name}: {value!r}", file=sys.stderr)
        return ok

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.results if not ok)

    def digest(self):
        return hashlib.sha256(json.dumps(self.results).encode()).hexdigest()[:16]


def median(values):
    return float(np.median(values))


def peak_rss_mb():
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, count):
    """Run ``setup`` ``count`` times; return the last state and the durations."""
    durations = []
    state = None
    for _ in range(count):
        state = None  # let the previous state go before building the next
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    print(f"set-up {[round(d, 3) for d in durations]} s", file=sys.stderr)
    return state, durations


def run_phases(state, seconds, trace, timed, units):
    """The timed phase, and in a traced run the untraced phase after it.

    ``timed(state, seconds)`` runs whole rounds until ``seconds`` pass and
    returns its samples; ``units(samples)`` gives ``(work units, items,
    busy seconds)``. A traced run records spans during the first phase, whose
    samples feed the checks either way, and then measures the same
    operations untraced for the overhead figure. Returns ``(samples, tracer,
    overhead_pct)``.
    """
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        samples = timed(state, seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    overhead = None
    if trace:
        _, items, busy = units(samples)
        _, base_items, base_busy = units(timed(state, seconds))
        overhead = 100.0 * ((base_items / base_busy) / (items / busy) - 1.0)
    return samples, tracer, overhead


def write_trace(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}"))


def result(checks, attempted, e2e=None, layers=None):
    """The run's JSON result; ``e2e`` maps names to values, ``layers`` to
    ``(value, unit)`` pairs."""
    metrics = {}
    for name, value in (e2e or {}).items():
        metrics[name] = {"value": float(value), "unit": E2E_UNITS[name]}
    for name, (value, unit) in (layers or {}).items():
        metrics[name] = {"value": float(value), "unit": unit}
    return {"correct": checks.failed == 0, "attempted": int(attempted),
            "failed": int(checks.failed), "metrics": metrics}


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
             "op_ms.cva": "ms", "op_ms.ra": "ms"}


def end_to_end(setup_s, items, busy, ops, peak_rss=None):
    """The end-to-end metrics; ``ops`` maps a variant to its operation times.

    ``op_ms`` is the mean, which uses every operation's time: a run holds
    as few as three full-scale steps per variant.
    """
    return {"setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb() if peak_rss is None else peak_rss,
            "items_per_s": items / busy,
            "op_ms.cva": 1e3 * float(np.mean(ops["cva"])),
            "op_ms.ra": 1e3 * float(np.mean(ops["ra"]))}


def layer_metrics(summary, units, commands=1, overhead=None, extra=None):
    """Per-layer metrics from a trace summary.

    ``_ms`` times and counts are per work unit (training step, eval batch or
    loss evaluation); ``_s`` times and ``data.examples_prepared`` are per
    command; ``cli.gradcheck_cell_s`` is per cell.
    """
    spans = summary["spans"]

    def agg(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {"tensor.nodes_per_step": (summary["nodes"] / units, "count")}
    for metric, span in PER_UNIT_MS.items():
        out[metric] = (1e3 * agg(span, "total_s") / units, "ms")
    for metric, span in PER_COMMAND_S.items():
        out[metric] = (agg(span, "total_s") / commands, "s")
    out["data.examples_prepared"] = (agg("data.prepare_dataset", "amount") / commands,
                                     "count")
    out["model.groups_per_batch"] = (agg("data.gather", "amount") / units, "count")
    cells = agg("cli.gradcheck_cell", "calls")
    out["cli.gradcheck_cell_s"] = (agg("cli.gradcheck_cell", "total_s") / cells
                                   if cells else 0.0, "s")
    for op in tracing.PRIMITIVES:
        name = f"tensor.{op}"
        out[f"{name}.calls"] = (agg(name, "calls") / units, "count")
        out[f"{name}.ms"] = (1e3 * agg(name, "total_s") / units, "ms")
        out[f"{name}.bytes"] = (agg(name, "amount") / units, "bytes")
    extra = extra or {}
    for variant in ("cva", "ra"):
        out[f"model.peak_rss_mb.{variant}"] = (extra.get(variant, 0.0), "MB")
    out["trace.overhead_pct"] = (overhead, "%")
    return out


PER_UNIT_MS = {
    "encoder.forward_ms": "encoder.forward",
    "encoder.instance_ms": "encoder.instance",
    "attention.forward_ms": "attention.forward",
    "attention.channel_ms": "attention.channel",
    "attention.spatial_ms": "attention.spatial",
    "classifier.forward_ms": "classifier.forward",
    "classifier.loss_ms": "classifier.loss",
    "model.forward_ms": "model.forward",
    "model.instance_forward_ms": "model.instance_forward",
    "model.predict_ms": "model.predict",
    "tensor.backward_ms": "tensor.backward",
    "data.gather_ms": "data.gather",
    "training.set_grads_ms": "training.set_grads",
    "training.clip_ms": "training.clip",
    "training.adam_ms": "training.adam",
    "training.restore_checkpoint_ms": "training.restore_checkpoint",
}

PER_COMMAND_S = {
    "data.load_features_s": "data.load_features",
    "data.load_examples_s": "data.load_examples",
    "data.prepare_dataset_s": "data.prepare_dataset",
    "metrics.score_s": "metrics.score",
    "metrics.wups_s": "metrics.wups",
}
