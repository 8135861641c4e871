"""full-train: cva and ra training steps at the paper's shape, B=32.

Profile ``full``: K=36 regions, D=2048 channels, h_a = H = 1024, E=300,
2000 answers, a 1000-word question vocabulary and questions of 6-14 tokens;
the other settings are ``TrainConfig``'s defaults (Adam lr 1e-3, clip 10,
dropout 0.5). Each variant runs in a fresh child process (this file run as
a script), one after the other, so that its peak RSS is its own. A child
builds one fixed batch, gives the model a warm-up step, then runs
``training.train_epoch`` over a dataset of exactly that batch, one step per
call, for half the run's seconds and at least three steps. ra has no
channel scorer: it is the control for changes to that layer.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import common
import tracing
from reference import Reference, cross_entropy

from cubevqa import data, training
from cubevqa.model import Batch, ModelConfig, VqaModel

VARIANTS = ("cva", "ra")
BATCH = 32
REGIONS, CHANNELS, ANSWERS, WORDS = 36, 2048, 2000, 1000
MIN_STEPS = 3
INITIAL_LOSS_TOLERANCE = 0.05
LOSS_TOLERANCE = 1e-9
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# child process


def make_inputs(seed):
    """One batch of random region features, questions and labels."""
    rng = training.substream(seed, "perfbench", "full-train")
    question_vocab = [data.UNKNOWN_TOKEN] + [f"w{i:04d}" for i in range(1, WORDS)]
    answer_vocab = [data.UNKNOWN_TOKEN] + [f"a{i:04d}" for i in range(1, ANSWERS)]
    container = data.FeatureContainer()
    examples = []
    for n in range(BATCH):
        image_id = f"full_{n:03d}"
        container.add(image_id, rng.random((REGIONS, CHANNELS), dtype=np.float32))
        length = int(rng.integers(6, 15))
        tokens = [question_vocab[int(i)] for i in rng.integers(1, WORDS, size=length)]
        label = int(rng.integers(1, ANSWERS))
        examples.append(data.VqaExample(image_id, tokens,
                                        [answer_vocab[label]] * 10, label))
    dataset = data.prepare_dataset(container, examples, question_vocab, answer_vocab)
    return container, examples, dataset


def check_warm_up(checks, variant, loss, flat_grad):
    checks.expect(f"{variant}: initial loss is near ln {ANSWERS}",
                  abs(loss - math.log(ANSWERS)) <= INITIAL_LOSS_TOLERANCE, loss)
    checks.expect(f"{variant}: every gradient is finite", bool(np.isfinite(flat_grad).all()))


def check_falls(checks, variant, history):
    checks.expect(f"{variant}: loss falls over steps on one fixed batch",
                  all(b < a for a, b in zip(history, history[1:])), history)


def check_example(checks, variant, model, container, example, question_vocab):
    """The program's eval-mode loss of ``example`` against the reference's."""
    features = container[example.image_id].astype(np.float64)
    index = {tok: i for i, tok in enumerate(question_vocab)}
    ids = np.array([index[t] for t in example.tokens])
    scores = model.predict_batch(Batch(features=features[None], token_ids=ids[None],
                                       lengths=np.array([ids.size]),
                                       labels=np.array([example.train_label])))[0]
    got = cross_entropy(scores, example.train_label)
    expected = Reference(model.store, model.config).loss(features, ids,
                                                         example.train_label)
    checks.expect(f"{variant}: one example's loss matches the reference",
                  abs(got - expected) <= LOSS_TOLERANCE, (got, expected))


def timed(state, seconds):
    """Steps on the fixed batch for ``seconds``, and at least ``MIN_STEPS``."""
    steps = []
    start = time.perf_counter()
    while len(steps) < MIN_STEPS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        loss, _ = training.train_epoch(state["model"], state["dataset"], state["config"],
                                       state["epoch"])
        steps.append(time.perf_counter() - t0)
        state["losses"].append(loss)
        state["epoch"] += 1
    return steps


def units(steps):
    return len(steps), BATCH * len(steps), sum(steps)


def child(variant, seed, seconds, trace):
    """Set up, warm up, time steps; print one JSON line for the parent."""
    checks = common.Checks()
    config = training.TrainConfig(batch_size=BATCH, profile="full", seed=seed)
    container, examples, dataset = make_inputs(seed)
    model_config = ModelConfig.from_profile("full", variant=variant, vocab_size=WORDS,
                                            num_answers=ANSWERS, feat_dim=CHANNELS)
    model = VqaModel(model_config, seed=seed)
    warm_loss, _, _ = model.train_step_forward_backward(
        dataset.gather(range(BATCH)), dropout_rate=config.dropout,
        dropout_rng=training.substream(seed, "perfbench", "warm-up dropout"))
    check_warm_up(checks, variant, warm_loss, model.store.flat_grad)
    training.clip_gradients(model.store, config.clip_norm)
    training.adam_step(model.store, config)
    setup_end = time.time()
    state = {"model": model, "dataset": dataset, "config": config, "epoch": 0,
             "losses": []}
    steps, tracer, overhead = common.run_phases(state, seconds, trace, timed, units)
    out = {"setup_end": setup_end, "steps": steps, "peak_rss_mb": common.peak_rss_mb()}
    if trace:
        out["overhead"] = overhead
        out["summary"] = tracer.summary()
        common.write_trace(tracer, f"full-train-{variant}", seed)
    check_falls(checks, variant, [warm_loss] + state["losses"][:MIN_STEPS])
    # at the initial weights, so the checked value does not depend on how
    # many steps the run's time allowed
    state = model = None
    model = VqaModel(model_config, seed=seed)
    check_example(checks, variant, model, container, examples[0], dataset.question_vocab)
    out["checks"] = checks.results
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# parent


def spawn(variant, seed, seconds, trace):
    """Run one child to its end; return its result and the spawn wall time."""
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--variant", variant,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, started
    if proc.returncode != 0:
        return None, started
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run(seed, seconds, trace, import_s):
    checks = common.Checks()
    results = {}
    setup_s = 0.0
    for variant in VARIANTS:
        out, started = spawn(variant, seed, seconds / len(VARIANTS), trace)
        if not checks.expect(f"{variant}: child process ran to its end", out is not None):
            continue
        results[variant] = out
        setup_s += out["setup_end"] - started
        for name, ok, value in out["checks"]:
            checks.results.append((name, ok, value))
            if not ok:
                print(f"check failed: {name}: {value}", file=sys.stderr)
    steps = {v: results[v]["steps"] for v in results}
    attempted = sum(len(s) for s in steps.values()) + len(checks.results)
    if checks.failed:
        return checks, attempted, None, None
    count = sum(len(s) for s in steps.values())
    if trace:
        overhead = sum(results[v]["overhead"] * len(steps[v]) for v in VARIANTS) / count
        return checks, attempted, None, common.layer_metrics(
            tracing.merge([results[v]["summary"] for v in VARIANTS]), count,
            overhead=overhead,
            extra={v: results[v]["peak_rss_mb"] for v in VARIANTS})
    # one batch per variant over the two mean step times: the children fit
    # different step counts into their time, which must not weight the mix
    e2e = common.end_to_end(
        setup_s, BATCH * len(VARIANTS), sum(float(np.mean(s)) for s in steps.values()),
        steps, peak_rss=max([common.peak_rss_mb()]
                            + [results[v]["peak_rss_mb"] for v in VARIANTS]))
    for variant in VARIANTS:
        print(f"full-train {variant}: {len(steps[variant])} steps "
              f"{[round(s, 3) for s in steps[variant]]} s, peak RSS "
              f"{results[variant]['peak_rss_mb']:.0f} MB", file=sys.stderr)
    return checks, attempted, e2e, None


if __name__ == "__main__":
    # run.py's PYTHONPATH and BLAS settings reach the child through its environment
    _parser = argparse.ArgumentParser()
    _parser.add_argument("--variant", choices=VARIANTS, required=True)
    _parser.add_argument("--seed", type=int, required=True)
    _parser.add_argument("--seconds", type=float, required=True)
    _parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    _args = _parser.parse_args()
    child(_args.variant, _args.seed, _args.seconds, bool(_args.trace))
