"""desk-train: ca, ra, cva and cva-v trained in turn at desk scale.

Inputs: the ``mixed`` toy task, 2000 training examples at K=6, D=32, with
the settings of ``configs/desk.cfg`` (B=16, lr 0.01, no dropout). Set-up
generates the data, builds the four models and gives each one a warm-up step
(the first batch of epoch 0). A round is one epoch of
``training.train_epoch`` per variant, 125 steps each; the models keep
training from round to round. Steps are timed inside the program's loop: a
timestamp at every ``gather`` call marks where a step starts.
"""

import os
import sys
import time

import numpy as np

import common
from reference import Reference

from cubevqa import data, training
from cubevqa.model import ModelConfig, VqaModel

VARIANTS = ("ca", "ra", "cva", "cva-v")
TRAIN_SIZE = 2000
REGIONS, CHANNELS = 6, 32
SETUPS = 5
MIN_ROUNDS = 2
FD_EPS = 1e-5
FD_TOLERANCE = 1e-6
LOSS_TOLERANCE = 1e-10


class StepClock:
    """Marks the start of every step of ``train_epoch`` on one dataset."""

    def __init__(self, dataset):
        self.marks = []

        def timed_gather(indices):
            self.marks.append(time.perf_counter())
            # looked up per call, so a traced run's wrapper is seen
            return type(dataset).gather(dataset, indices)

        dataset.gather = timed_gather

    def epoch(self, run):
        """Run one epoch through ``run()``; return its result and step times."""
        self.marks.clear()
        out = run()
        end = time.perf_counter()
        return out, np.diff(self.marks + [end])


def model_config(config, variant, bundle):
    return ModelConfig.from_profile(config.profile, variant=variant,
                                    vocab_size=len(bundle.question_vocab),
                                    num_answers=len(bundle.answer_vocab),
                                    feat_dim=CHANNELS)


def setup(seed):
    config = training.apply_overrides(
        training.parse_config_file(os.path.join(common.ROOT, "configs", "desk.cfg")),
        {"seed": str(seed)})
    bundle = data.generate_toy_dataset("mixed", TRAIN_SIZE, REGIONS, CHANNELS, seed)
    dataset = data.prepare_dataset(bundle.container, bundle.examples,
                                   bundle.question_vocab, bundle.answer_vocab)
    first = training.substream(config.seed, "shuffle", 0).permutation(
        dataset.size())[:config.batch_size]
    state = {"config": config, "bundle": bundle, "dataset": dataset, "first": first,
             "models": {}, "warm_loss": {}, "warm_grad": {}, "epoch": 0,
             "epoch_loss": {v: [] for v in VARIANTS}}
    for variant in VARIANTS:
        model = VqaModel(model_config(config, variant, bundle), seed=config.seed)
        loss, _, _ = model.train_step_forward_backward(dataset.gather(first))
        state["warm_loss"][variant] = loss
        state["warm_grad"][variant] = model.store.flat_grad.copy()
        training.clip_gradients(model.store, config.clip_norm)
        training.adam_step(model.store, config)
        state["models"][variant] = model
    state["clock"] = StepClock(dataset)
    return state


def timed(state, seconds):
    """Whole rounds, one epoch per variant, until ``seconds`` have passed."""
    steps = {v: [] for v in VARIANTS}
    examples = 0
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for variant in VARIANTS:
            (loss, _), times = state["clock"].epoch(lambda: training.train_epoch(
                state["models"][variant], state["dataset"], state["config"],
                state["epoch"]))
            state["epoch_loss"][variant].append(loss)
            steps[variant].extend(times)
            examples += state["dataset"].size()
        state["epoch"] += 1
        rounds += 1
    return {"steps": steps, "examples": examples}


def units(samples):
    steps = samples["steps"]
    return (sum(len(s) for s in steps.values()), samples["examples"],
            sum(float(np.sum(s)) for s in steps.values()))


def reference_examples(bundle, indices):
    index = {tok: i for i, tok in enumerate(bundle.question_vocab)}
    out = []
    for i in indices:
        ex = bundle.examples[int(i)]
        out.append((bundle.container[ex.image_id].astype(np.float64),
                    [index[t] for t in ex.tokens], ex.train_label))
    return out


def check(state, checks, seed):
    """First-step loss and sampled gradients against the reference; loss falls."""
    batch = reference_examples(state["bundle"], state["first"])
    for variant in VARIANTS:
        fresh = VqaModel(model_config(state["config"], variant, state["bundle"]),
                         seed=state["config"].seed)
        ref = Reference(fresh.store, fresh.config)
        expected = ref.mean_loss(batch)
        got = state["warm_loss"][variant]
        checks.expect(f"{variant}: first-step loss matches the reference",
                      abs(got - expected) <= LOSS_TOLERANCE, (got, expected))
        grad = state["warm_grad"][variant]
        rng = training.substream(seed, "perfbench", "fd", variant)
        worst = 0.0
        offset = 0
        for name in fresh.store.names():
            value = fresh.store[name].value
            flat = value.reshape(-1)
            g = grad[offset:offset + flat.size]
            for i in {int(rng.integers(flat.size)), int(np.argmax(np.abs(g)))}:
                orig = flat[i]
                flat[i] = orig + FD_EPS
                plus = ref.mean_loss(batch)
                flat[i] = orig - FD_EPS
                minus = ref.mean_loss(batch)
                flat[i] = orig
                numeric = (plus - minus) / (2 * FD_EPS)
                worst = max(worst, abs(g[i] - numeric) / max(1.0, abs(g[i]), abs(numeric)))
            offset += flat.size
        checks.expect(f"{variant}: sampled gradients match central differences",
                      worst <= FD_TOLERANCE, worst)
        first, second = state["epoch_loss"][variant][:2]
        checks.expect(f"{variant}: epoch loss falls", second < first, (first, second))


def run(seed, seconds, trace, import_s):
    checks = common.Checks()
    state, setups = common.timed_setups(lambda: setup(seed), SETUPS)
    samples, tracer, overhead = common.run_phases(state, seconds, trace, timed, units)
    check(state, checks, seed)
    steps = samples["steps"]
    step_units, examples, busy = units(samples)
    attempted = step_units + len(checks.results)
    if trace:
        common.write_trace(tracer, "desk-train", seed)
        return checks, attempted, None, common.layer_metrics(
            tracer.summary(), step_units, overhead=overhead)
    e2e = common.end_to_end(import_s + common.median(setups), examples, busy, steps)
    for variant in VARIANTS:
        p50, p90 = np.percentile(steps[variant], [50, 90]) * 1e3
        print(f"desk-train {variant}: {len(steps[variant])} steps, "
              f"p50 {p50:.3f} ms, p90 {p90:.3f} ms", file=sys.stderr)
    return checks, attempted, e2e, None
