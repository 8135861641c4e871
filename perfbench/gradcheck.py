"""gradcheck: ``cli.gradcheck_model`` cells for all four variants, in process.

A cell builds the command's tiny random instance (K=4, D=8, H=h_a=E=8,
T=3, 5 answers) from its seed and compares every parameter's gradient with
central differences: two tape-less single-instance loss evaluations per
parameter coordinate. A timed round is one cva cell and one ra cell, the
two variants every workload reports; round ``r`` of a run with seed ``s``
uses cell seed ``1000 s + r``, so seeds never share cells. The checks add
one ca and one cva-v cell at the first round's seed, so every run checks
all four variants. (With all four in every round, each reported variant
got a quarter of the run, and the cell-to-cell noise of this machine,
about 15%, left its mean too unsteady.) Set-up is the imports and one
warm-up cell.
"""

import time

import common
from reference import Reference

from cubevqa import cli
from cubevqa.model import ModelConfig, VqaModel
from cubevqa.training import substream

TIMED = ("cva", "ra")
CHECKED = ("ca", "cva-v")
SETUPS = 5
MIN_ROUNDS = 2
LOSS_TOLERANCE = 1e-10


def cell_seed(seed, round_index):
    return 1000 * seed + round_index


def rebuild(variant, seed):
    """The cell's model and instance, made the way ``gradcheck_model`` makes them."""
    config = ModelConfig(variant=variant, vocab_size=9, num_answers=5, feat_dim=8,
                         embed_dim=8, hidden_dim=8, attn_dim=8, fuse_dim=8)
    model = VqaModel(config, seed=seed)
    rng = substream(seed, "gradcheck", variant)
    features = rng.uniform(-1.0, 1.0, size=(4, 8))
    token_ids = rng.integers(0, config.vocab_size, size=3)
    label = int(rng.integers(0, config.num_answers))
    return model, features, token_ids, label


def loss_evaluations(variant):
    """Central-difference loss evaluations in one cell: two per coordinate."""
    model = rebuild(variant, 0)[0]
    return 2 * model.store.flat_value.size


def setup(seed):
    cli.gradcheck_model("cva", cell_seed(seed, 0))
    return {"seed": seed, "round": 0, "cells": [],
            "evaluations": {v: loss_evaluations(v) for v in TIMED}}


def timed(state, seconds):
    """Whole rounds, one cva and one ra cell, until ``seconds`` have passed."""
    times = {v: [] for v in TIMED}
    evaluations = 0
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        seed = cell_seed(state["seed"], state["round"])
        for variant in TIMED:
            t0 = time.perf_counter()
            worst, _ = cli.gradcheck_model(variant, seed)
            times[variant].append(time.perf_counter() - t0)
            state["cells"].append((variant, seed, worst))
            evaluations += state["evaluations"][variant]
        state["round"] += 1
        rounds += 1
    return {"times": times, "evaluations": evaluations}


def units(samples):
    return (samples["evaluations"], samples["evaluations"],
            sum(sum(t) for t in samples["times"].values()))


def check(state, checks):
    """The first two rounds' cells and one ca and one cva-v cell: within
    tolerance, and the unperturbed loss equals the reference's."""
    seed = cell_seed(state["seed"], 0)
    cells = state["cells"][:MIN_ROUNDS * len(TIMED)]
    cells += [(v, seed, cli.gradcheck_model(v, seed)[0]) for v in CHECKED]
    worst = max(w for _, _, w in cells)
    checks.expect(f"every cell within {cli.GRADCHECK_TOLERANCE:g}",
                  all(w <= cli.GRADCHECK_TOLERANCE for _, _, w in state["cells"] + cells),
                  worst)
    deviation = 0.0
    for variant, seed, _ in cells:
        model, features, token_ids, label = rebuild(variant, seed)
        got = float(model.instance_loss(None, features, token_ids, label).value)
        expected = Reference(model.store, model.config).loss(features, token_ids, label)
        deviation = max(deviation, abs(got - expected))
    checks.expect("each cell's unperturbed loss matches the reference",
                  deviation <= LOSS_TOLERANCE, deviation)


def run(seed, seconds, trace, import_s):
    checks = common.Checks()
    state, setups = common.timed_setups(lambda: setup(seed), SETUPS)
    samples, tracer, overhead = common.run_phases(state, seconds, trace, timed, units)
    check(state, checks)
    evaluations, _, busy = units(samples)
    cells = sum(len(t) for t in samples["times"].values())
    attempted = cells + len(checks.results)
    if trace:
        common.write_trace(tracer, "gradcheck", seed)
        return checks, attempted, None, common.layer_metrics(
            tracer.summary(), evaluations, overhead=overhead)
    e2e = common.end_to_end(import_s + common.median(setups), evaluations, busy,
                            samples["times"])
    return checks, attempted, e2e, None
