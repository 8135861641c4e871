"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ... PASS/FAIL`` line (visible under
``pytest -s`` or on failure). The toy-task learning criterion trains 40
desk-scale models and dominates the runtime; run this module alone with

    pytest tests/test_acceptance.py -v -s
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import cubevqa.attention as A
import cubevqa.cli as cli
import cubevqa.tensor as T
from cubevqa import data, metrics
from cubevqa.metrics import Taxonomy, vqa_accuracy, wup_similarity, wups_score
from cubevqa.model import ATTENTION_ORDER, ModelConfig, VqaModel
from cubevqa.tensor import Tensor
from cubevqa.training import TrainConfig, substream
from helpers import (naive_ca_only, naive_cva, naive_cva_v, naive_ra_only,
                     channel_params_as_lists, spatial_params_as_lists)

pytestmark = pytest.mark.acceptance


def report(number, name, passed, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness(capsys):
    start = time.perf_counter()
    code = cli.main(["gradcheck", "--variant", "all", "--seeds", "20", "--seed", "0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    worst = max(float(line.split("max_rel_err")[1].split()[0])
                for line in out.splitlines()
                if "max_rel_err" in line and not line.startswith("OK"))
    with capsys.disabled():
        report(1, "gradient correctness",
               code == 0 and worst < 1e-4 and elapsed < 30.0,
               f"exit {code}, max rel err {worst:.2e}, {elapsed:.1f} s for "
               f"4 variants x 20 seeds")


# ---------------------------------------------------------------------------
# 2. attention invariants


def random_attention_setup(rng, k, d, h_a, hidden):
    def t(shape, lim=1.0):
        return Tensor(rng.uniform(-lim, lim, shape))

    chan = SimpleNamespace(vis_scale=t(d), vis_shift=t(d),
                           w_question=t((h_a, hidden)), b_question=t(h_a),
                           w_score=t(h_a), b_score=t(()))
    spat = SimpleNamespace(w_visual=t((h_a, d)), b_visual=t(h_a),
                           w_question=t((h_a, hidden)), b_question=t(h_a),
                           w_score=t(h_a), b_score=t(()))
    # one map and question as a batch of one, every row a region
    v = Tensor(rng.uniform(-3, 3, (1, k, d)))
    q = Tensor(rng.uniform(-3, 3, (1, hidden)))
    return chan, spat, v, q, A.RegionMask(np.full(1, k), k)


def test_criterion_2_attention_invariants(capsys):
    rng = np.random.default_rng(0)
    k, d, h_a, hidden = 5, 8, 8, 8
    worst_sum = 0.0
    worst_chan_drift = 0.0
    worst_equivariance = 0.0
    worst_cva_drift = 0.0
    all_positive = True
    for _ in range(1000):
        chan, spat, v, q, mask = random_attention_setup(rng, k, d, h_a, hidden)
        out, beta, eta = A.attend(None, ATTENTION_ORDER["cva"], v, mask, q, chan, spat,
                                  tanh_after_sum=True)
        beta, eta = beta.value, eta.value
        worst_sum = max(worst_sum, abs(beta.sum() - 1), abs(eta.sum() - 1))
        all_positive = all_positive and np.all(beta > 0) and np.all(eta > 0)
        perm = rng.permutation(k)
        v_perm = Tensor(v.value[:, perm])
        beta_perm = A.channel_attention(None, A.channel_mean_pool(None, v_perm, mask),
                                        q, chan).value
        worst_chan_drift = max(worst_chan_drift, np.max(np.abs(beta_perm - beta)))
        eta_perm = A.spatial_attention(None, v_perm, mask, q, spat,
                                       tanh_after_sum=True).value
        raw_eta = A.spatial_attention(None, v, mask, q, spat, tanh_after_sum=True).value
        worst_equivariance = max(worst_equivariance,
                                 np.max(np.abs(eta_perm - raw_eta[:, perm])))
        out_perm, _, _ = A.attend(None, ATTENTION_ORDER["cva"], v_perm, mask, q, chan,
                                  spat, tanh_after_sum=True)
        worst_cva_drift = max(worst_cva_drift,
                              np.max(np.abs(out_perm.value - out.value)))
    with capsys.disabled():
        report(2, "attention invariants",
               worst_sum <= 1e-6 and all_positive and worst_chan_drift <= 1e-12
               and worst_equivariance <= 1e-10 and worst_cva_drift <= 1e-10,
               f"sum err {worst_sum:.1e}, chan drift {worst_chan_drift:.1e}, "
               f"equivariance {worst_equivariance:.1e}, cva drift {worst_cva_drift:.1e} "
               f"over 1000 instances")


# ---------------------------------------------------------------------------
# 3. injected all-ones weights reduce aggregation to the mean


def test_criterion_3_mean_reduction(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 17))
        v = rng.uniform(-10, 10, (1, k, d))
        mask = A.RegionMask(np.full(1, k), k)
        via_weights = A.apply_spatial_weights(None, Tensor(np.ones((1, k))),
                                              Tensor(v), mask).value
        via_mean = T.mean_over_rows(None, Tensor(v), mask.counts).value
        worst = max(worst, np.max(np.abs(via_weights - via_mean)))
    with capsys.disabled():
        report(3, "all-ones weights equal the mean", worst <= 1e-12,
               f"max deviation {worst:.1e} over 100 random maps")


# ---------------------------------------------------------------------------
# 4. scalar-loop oracle equivalence


def test_criterion_4_forward_oracle_equivalence(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(25):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        h_a, hidden = 6, 6
        chan, spat, v, q, mask = random_attention_setup(rng, k, d, h_a, hidden)
        vl, ql = v.value[0].tolist(), q.value[0].tolist()
        cl, sl = channel_params_as_lists(chan), spatial_params_as_lists(spat)
        for tanh_after_sum in (False, True):
            for rescale in (False, True):
                oracles = {
                    "cva": naive_cva(vl, ql, cl, sl, tanh_after_sum, rescale),
                    "cva-v": naive_cva_v(vl, ql, cl, sl, tanh_after_sum, rescale),
                    "ca": naive_ca_only(vl, ql, cl, rescale),
                    "ra": naive_ra_only(vl, ql, sl, tanh_after_sum),
                }
                for variant, expected in oracles.items():
                    out, _, _ = A.attend(None, ATTENTION_ORDER[variant], v, mask, q, chan,
                                         spat, tanh_after_sum=tanh_after_sum,
                                         rescale_channel_gains=rescale)
                    worst = max(worst,
                                np.max(np.abs(out.value[0] - np.array(expected[0]))))
    with capsys.disabled():
        report(4, "forward-pass oracle equivalence", worst <= 1e-10,
               f"max deviation {worst:.1e} across 25 instances x 4 pipelines "
               f"x both scorer forms x both gain forms")


# ---------------------------------------------------------------------------
# 5. toy-task learning


def desk_datasets(task):
    train_bundle = data.generate_toy_dataset(task, 2000, 6, 32, seed=0,
                                             split="train")
    test_bundle = data.generate_toy_dataset(task, 500, 6, 32, seed=0, split="test")
    data.assign_labels(test_bundle.examples, train_bundle.answer_vocab)
    train_set = data.prepare_dataset(train_bundle.container, train_bundle.examples,
                                     train_bundle.question_vocab,
                                     train_bundle.answer_vocab)
    test_set = data.prepare_dataset(test_bundle.container, test_bundle.examples,
                                    train_bundle.question_vocab,
                                    train_bundle.answer_vocab)
    return train_set, test_set


@pytest.mark.slow
def test_criterion_5_toy_task_learning(capsys):
    start = time.perf_counter()
    config = TrainConfig(learning_rate=0.01, batch_size=16, epochs=30,
                         dropout=0.0, seed=0)
    means = {}
    for task, variants in (("spatial", ("ca", "ra", "cva")),
                           ("channel", ("ca", "cva")),
                           ("mixed", ("ca", "ra", "cva"))):
        datasets = {task: desk_datasets(task)}
        results = cli.run_ablation(datasets, config, 5, variants=variants)
        for variant in variants:
            means[(task, variant)] = float(np.mean(results[variant][task]))
    elapsed = time.perf_counter() - start
    checks = [
        ("spatial RA >= 0.95", means[("spatial", "ra")] >= 0.95),
        ("spatial CVA >= 0.95", means[("spatial", "cva")] >= 0.95),
        ("spatial CA <= 0.40", means[("spatial", "ca")] <= 0.40),
        ("channel CA >= 0.95", means[("channel", "ca")] >= 0.95),
        ("channel CVA >= 0.95", means[("channel", "cva")] >= 0.95),
        ("mixed CVA >= max(CA,RA) - 0.02",
         means[("mixed", "cva")] >= max(means[("mixed", "ca")],
                                        means[("mixed", "ra")]) - 0.02),
        ("mixed CVA > min(CA,RA) + 0.10",
         means[("mixed", "cva")] > min(means[("mixed", "ca")],
                                       means[("mixed", "ra")]) + 0.10),
        ("runtime <= 600 s", elapsed <= 600.0),
    ]
    detail = "; ".join(f"{task}/{variant}={acc:.3f}"
                       for (task, variant), acc in sorted(means.items()))
    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        report(5, "toy-task learning", not failed,
               f"{detail}; {elapsed:.0f} s" +
               (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 6. metric fidelity


def test_criterion_6_metric_fidelity(tmp_path, capsys):
    quantized = True
    for matches in range(11):
        answers = ["a"] * matches + [f"b{i}" for i in range(10 - matches)]
        expected = min(matches / 3.0, 1.0)
        quantized = quantized and vqa_accuracy("a", answers) == pytest.approx(expected)
        quantized = quantized and any(
            abs(vqa_accuracy("a", answers) - v) < 1e-12
            for v in (0.0, 1 / 3, 2 / 3, 1.0))

    sibling_path = tmp_path / "siblings.txt"
    sibling_path.write_text("root\ta\nroot\tb\n")
    siblings = Taxonomy.load(str(sibling_path))
    raw = wup_similarity("a", "b", siblings)
    thresholded = wups_score(["a"], ["b"], siblings, 0.9)

    # report ordering across random models on a toy evaluation
    bundle = data.generate_toy_dataset("mixed", 120, 6, 32, seed=3)
    prepared = data.prepare_dataset(bundle.container, bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    lines = ["entity\tcolor", "entity\tshape", "entity\tsize"]
    lines += [f"color\t{c}" for c in data.COLOR_WORDS]
    for fam, values in data.FAMILIES:
        lines += [f"{fam}\t{v}" for v in values]
    tax_path = tmp_path / "tax.txt"
    tax_path.write_text("\n".join(lines) + "\n")
    taxonomy = Taxonomy.load(str(tax_path))
    ordering = True
    for seed in range(5):
        model_config = ModelConfig.from_profile(
            "desk", variant="cva", vocab_size=len(bundle.question_vocab),
            num_answers=len(bundle.answer_vocab), feat_dim=32)
        model = VqaModel(model_config, seed=seed)
        rep = metrics.evaluate(model, prepared, taxonomy=taxonomy)
        ordering = ordering and rep.wups_0_0 >= rep.wups_0_9 >= rep.accuracy - 1e-12
    with capsys.disabled():
        report(6, "metric fidelity",
               quantized and raw == pytest.approx(0.5)
               and thresholded == pytest.approx(0.05) and ordering,
               f"consensus table exact, sibling raw {raw:.2f} -> {thresholded:.3f} "
               f"at 0.9, WUPS ordering holds on 5 random models")


# ---------------------------------------------------------------------------
# 7. determinism and persistence


def test_criterion_7_determinism_and_persistence(tmp_path, capsys):
    ds = str(tmp_path / "data")
    assert cli.main(["synth", "--task", "mixed", "--out", ds, "--size", "200",
                     "--k", "4", "--d", "16", "--seed", "1"]) == 0
    flags = ["--lr", "0.01", "--batch-size", "25", "--dropout", "0.3",
             "--seed", "4"]
    blobs = {}
    for name, epochs in (("one", "6"), ("two", "6"), ("half", "3")):
        out = str(tmp_path / name)
        assert cli.main(["train", "--variant", "cva", "--data", ds, "--out", out,
                         "--epochs", epochs] + flags) == 0
        blobs[name] = open(os.path.join(out, "checkpoint.cvac"), "rb").read()
    resumed_out = str(tmp_path / "resumed")
    assert cli.main(["train", "--variant", "cva", "--data", ds, "--out", resumed_out,
                     "--resume", os.path.join(str(tmp_path / "half"), "checkpoint.cvac"),
                     "--epochs", "6"] + flags) == 0
    blobs["resumed"] = open(os.path.join(resumed_out, "checkpoint.cvac"), "rb").read()
    identical = blobs["one"] == blobs["two"]
    resume_matches = blobs["resumed"] == blobs["one"]
    with capsys.disabled():
        report(7, "determinism and persistence", identical and resume_matches,
               f"repeat bitwise identical: {identical}, "
               f"resume matches uninterrupted: {resume_matches}")


# ---------------------------------------------------------------------------
# 8. full-scale shape contract


@pytest.mark.slow
def test_criterion_8_full_scale_shapes(capsys):
    config = ModelConfig(variant="cva", vocab_size=1000, num_answers=2000,
                         feat_dim=2048, embed_dim=300, hidden_dim=1024,
                         attn_dim=1024, fuse_dim=1024)
    model = VqaModel(config, seed=0)
    rng = substream(0, "full-scale-acceptance")
    from cubevqa.model import Batch
    batch = Batch(features=rng.uniform(-1, 1, (1, 36, 2048)),
                  token_ids=rng.integers(0, 1000, size=(1, 10)),
                  lengths=np.array([10]), labels=np.array([42]))
    start = time.perf_counter()
    loss, preds, _ = model.train_step_forward_backward([batch])
    elapsed = time.perf_counter() - start
    shapes_ok = True
    for name in model.store.names():
        p = model.store[name]
        shapes_ok = shapes_ok and p.grad.shape == p.value.shape \
            and np.all(np.isfinite(p.grad))
    beta, eta = model.attention_readout(batch)
    shapes_ok = shapes_ok and beta.shape == (1, 2048)
    shapes_ok = shapes_ok and eta.shape == (1, 36)
    with capsys.disabled():
        report(8, "full-scale shape contract",
               np.isfinite(loss) and shapes_ok and elapsed <= 10.0,
               f"K=36 D=2048 H=1024 h_a=1024 A=2000, one step {elapsed:.2f} s, "
               f"loss {loss:.3f}")