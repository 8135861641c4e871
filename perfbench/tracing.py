"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces module and class attributes of ``cubevqa`` with
wrappers. Each call records one span (name, start, end, parent span); the
spans stay in memory and ``write`` saves them when the run ends. Per span
name the tracer also keeps the call count, the inclusive time, the self
time (the span's duration minus the time its child spans cover) and an
amount measured on the result: the forward output bytes of a tensor
primitive, the groups ``gather`` returns, the examples ``prepare_dataset``
prepares.
"""

import importlib
import json
import time
from array import array

import numpy as np

# tensor.py's primitives; one missing from the program reads as zero calls
PRIMITIVES = ("add", "add_vec", "add_scalar", "mul", "mul_vec", "scale_rows",
              "one_minus", "scale", "tanh", "sigmoid", "affine", "rows_affine",
              "matvec_last", "outer", "gru_cell", "softmax", "mean_over_rows",
              "weighted_row_sum", "mean_all", "embedding_lookup", "cross_entropy")

# (module, owner attribute or None, function attribute, span name)
TARGETS = (
    ("tensor", "Tape", "backward", "tensor.backward"),
    ("encoder", None, "encode_questions_batch", "encoder.forward"),
    ("encoder", None, "encode_question", "encoder.instance"),
    ("attention", None, "ca_only_forward", "attention.forward"),
    ("attention", None, "ra_only_forward", "attention.forward"),
    ("attention", None, "cva_forward", "attention.forward"),
    ("attention", None, "cva_v_forward", "attention.forward"),
    ("attention", None, "channel_attention", "attention.channel"),
    ("attention", None, "spatial_attention", "attention.spatial"),
    ("classifier", None, "answer_scores", "classifier.forward"),
    ("classifier", None, "answer_loss", "classifier.loss"),
    ("model", "VqaModel", "_forward_batch", "model.forward"),
    ("model", "VqaModel", "forward_instance", "model.instance_forward"),
    ("model", "VqaModel", "predict_batch", "model.predict"),
    ("model", "VqaModel", "train_step_forward_backward", "model.train_step"),
    ("data", "PreparedDataset", "gather", "data.gather"),
    ("data", None, "load_features", "data.load_features"),
    ("data", None, "load_examples", "data.load_examples"),
    ("data", None, "prepare_dataset", "data.prepare_dataset"),
    ("training", "ParameterStore", "set_grads_from", "training.set_grads"),
    ("training", None, "clip_gradients", "training.clip"),
    ("training", None, "adam_step", "training.adam"),
    ("training", None, "train_epoch", "training.train_epoch"),
    ("training", None, "restore_checkpoint", "training.restore_checkpoint"),
    ("metrics", None, "evaluate", "metrics.evaluate"),
    ("metrics", None, "vqa_accuracy", "metrics.score"),
    ("metrics", None, "wups_score", "metrics.wups"),
    ("cli", None, "gradcheck_model", "cli.gradcheck_cell"),
    ("cli", None, "cmd_eval", "cli.eval"),
) + tuple(("tensor", None, op, f"tensor.{op}") for op in PRIMITIVES)


def _output_bytes(out):
    return out.value.nbytes


MEASURES = {"data.gather": len, "data.prepare_dataset": lambda out: out.size()}
MEASURES.update((f"tensor.{op}", _output_bytes) for op in PRIMITIVES)


# spans kept for ``write`` per process, about 40 MB; a long traced run's
# later calls still count in the aggregates and in ``dropped``
SPAN_CAPACITY = 1_000_000


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.total = []
        self.self_time = []
        self.amount = []
        self.nodes = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._next_id = 0
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        if name in self.names:
            return self.names.index(name)
        for series in (self.calls, self.total, self.self_time, self.amount):
            series.append(0)
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name, measure, count_nodes):
        nid = self._name_id(name)
        stack = self._stack
        calls, total, self_time, amount = self.calls, self.total, self.self_time, self.amount
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
                if len(tracer.span_id) < SPAN_CAPACITY:
                    tracer.span_id.append(sid)
                    tracer.span_name.append(nid)
                    tracer.span_parent.append(parent)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                else:
                    tracer.dropped += 1
            if measure is not None:
                amount[nid] += measure(out)
            if count_nodes:
                tracer.nodes += len(args[0])
            return out

        return wrapper

    def install(self):
        """Wrap every target that exists in the ``cubevqa`` modules."""
        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(f"cubevqa.{module_name}")
            owner = getattr(module, owner_name) if owner_name else module
            fn = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, name, MEASURES.get(name),
                                 count_nodes=name == "tensor.backward")
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        for name in [t[3] for t in TARGETS]:
            self._name_id(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self):
        """``{name: {calls, total_s, self_s, amount}}`` plus the tape node count."""
        out = {name: {"calls": self.calls[i], "total_s": self.total[i],
                      "self_s": self.self_time[i], "amount": self.amount[i]}
               for i, name in enumerate(self.names)}
        return {"spans": out, "nodes": self.nodes, "spans_kept": len(self.span_id),
                "spans_dropped": self.dropped}

    def write(self, path_prefix):
        """Save the spans (``.npz``) and the aggregates (``.json``)."""
        np.savez_compressed(
            path_prefix + ".npz", id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names))
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)


def merge(summaries):
    """Add up ``Tracer.summary`` results of several processes."""
    merged = {"spans": {}, "nodes": 0, "spans_kept": 0, "spans_dropped": 0}
    for s in summaries:
        for key in ("nodes", "spans_kept", "spans_dropped"):
            merged[key] += s[key]
        for name, agg in s["spans"].items():
            slot = merged["spans"].setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                slot[key] += value
    return merged
