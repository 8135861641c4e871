"""Quick self-test of the benchmark's reference and checks.

    python3 perfbench/selftest.py

Part 1: the reference agrees with the program to 1e-10 on random tiny
instances: every variant in both scorer forms and both gain forms, the
encoder, the loss, a checkpoint round trip, consensus accuracy and WUPS.
Part 2: each workload's check passes on the program's own output and
rejects a deliberately wrong one (a perturbed loss or gradient, a loss that
does not fall, a flipped prediction, a cell over tolerance). Exits 0 when
every case holds. Takes about half a minute.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import common  # noqa: E402
import reference  # noqa: E402

from cubevqa import encoder, metrics, training  # noqa: E402
from cubevqa.model import VARIANTS, Batch, ModelConfig, VqaModel  # noqa: E402

TOLERANCE = 1e-10
failures = []


def report(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}")
    if not ok:
        failures.append(name)


def random_batch(rng, config, batch, k):
    lengths = rng.integers(1, 5, size=batch)
    ids = np.zeros((batch, lengths.max()), dtype=np.int64)
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(0, config.vocab_size, size=n)
    return Batch(features=rng.uniform(-2.0, 2.0, size=(batch, k, config.feat_dim)),
                 token_ids=ids, lengths=lengths,
                 labels=rng.integers(0, config.num_answers, size=batch))


def part1():
    rng = np.random.default_rng(7)
    worst = {"scores": 0.0, "loss": 0.0, "encoder": 0.0}
    for trial in range(6):
        for variant in VARIANTS:
            for tanh_after_sum in (True, False):
                for rescale in (True, False):
                    config = ModelConfig(
                        variant=variant, vocab_size=7, num_answers=5, feat_dim=6,
                        embed_dim=4, hidden_dim=5, attn_dim=3, fuse_dim=4,
                        tanh_after_sum=tanh_after_sum, rescale_channel_gains=rescale,
                        channel_gain_strength=float(rng.uniform(0.05, 0.5)))
                    model = VqaModel(config, seed=int(rng.integers(1 << 30)))
                    for name in model.store.names():  # move off the zero biases
                        value = model.store[name].value
                        value += rng.normal(0.0, 0.3, value.shape)
                    batch = random_batch(rng, config, 3, int(rng.integers(1, 5)))
                    ref = reference.Reference(model.store, config)
                    examples = [(batch.features[i], batch.token_ids[i, :batch.lengths[i]],
                                 batch.labels[i]) for i in range(3)]
                    scores = model.predict_batch(batch)
                    expected = np.array([ref.scores(f, t) for f, t, _ in examples])
                    worst["scores"] = max(worst["scores"], np.abs(scores - expected).max())
                    loss, _, _ = model.train_step_forward_backward([batch])
                    worst["loss"] = max(worst["loss"], abs(loss - ref.mean_loss(examples)))
                    enc = model._groups(model.leaves())[0]
                    q = encoder.encode_questions_batch(None, enc, batch.token_ids,
                                                       batch.lengths).value
                    worst["encoder"] = max(worst["encoder"], max(
                        np.abs(q[i] - ref.encode(examples[i][1])).max() for i in range(3)))
    for name, value in worst.items():
        report(f"reference {name} agrees with the program", value <= TOLERANCE,
               f"(max deviation {value:.1e} over 96 instances)")

    with tempfile.TemporaryDirectory() as tmp:
        model = VqaModel(ModelConfig(variant="cva", vocab_size=7, num_answers=5,
                                     feat_dim=6), seed=3)
        path = os.path.join(tmp, "c.cvac")
        training.save_checkpoint(model.store, path)
        parsed = reference.read_checkpoint(path)
        report("checkpoint reader returns every value",
               all(np.array_equal(parsed[n].value, model.store[n].value)
                   for n in model.store.names()) and set(parsed) == set(model.store.names()))

        words = ["red", "Blue ", "green", "dark  red", "teal", "x"]
        edges = [("root", "color"), ("color", "red"), ("color", "blue"),
                 ("red", "dark red"), ("root", "green"), ("green", "teal")]
        tax_path = os.path.join(tmp, "tax.txt")
        with open(tax_path, "w") as fh:
            fh.writelines(f"{p}\t{c}\n" for p, c in edges)
        taxonomy = metrics.Taxonomy.load(tax_path)
        tree = reference.Tree(edges)
        deviation = 0.0
        for _ in range(200):
            preds = list(rng.choice(words, size=5))
            truths = list(rng.choice(words, size=5))
            humans = list(rng.choice(words, size=10))
            deviation = max(deviation, abs(metrics.vqa_accuracy(preds[0], humans)
                                           - reference.consensus(preds[0], humans)))
            for threshold in (0.0, 0.9):
                deviation = max(deviation, abs(
                    metrics.wups_score(preds, truths, taxonomy, threshold)
                    - tree.wups(preds, truths, threshold)))
        report("reference consensus and WUPS agree with the program",
               deviation <= TOLERANCE, f"(max deviation {deviation:.1e})")


def rejects(name, make_checks):
    """``make_checks()`` runs a check on wrong output; it must record a failure."""
    checks = make_checks()
    report(f"{name} is rejected", checks.failed > 0)


def fresh(run_check, *args):
    checks = common.Checks()
    run_check(*args, checks)
    return checks


def part2():
    import desk_train
    import eval_command
    import full_train
    import gradcheck

    # desk-train
    state = desk_train.setup(5)
    desk_train.timed(state, 0.0)
    checks = fresh(lambda c: desk_train.check(state, c, 5))
    report("desk-train checks pass on the program's output", checks.failed == 0)
    good_loss = state["warm_loss"]["cva"]
    state["warm_loss"]["cva"] = good_loss + 1e-8
    rejects("desk-train: a first-step loss off by 1e-8", lambda: fresh(
        lambda c: desk_train.check(state, c, 5)))
    state["warm_loss"]["cva"] = good_loss
    grad = state["warm_grad"]["ra"]
    top = int(np.argmax(np.abs(grad)))
    grad[top] *= 1.001
    rejects("desk-train: a gradient coordinate off by 0.1%", lambda: fresh(
        lambda c: desk_train.check(state, c, 5)))
    grad[top] /= 1.001
    state["epoch_loss"]["ca"][1] = state["epoch_loss"]["ca"][0] + 1e-3
    rejects("desk-train: an epoch loss that rises", lambda: fresh(
        lambda c: desk_train.check(state, c, 5)))

    # full-train, on the child's check functions
    container, examples, dataset = full_train.make_inputs(5)
    model = VqaModel(ModelConfig.from_profile(
        "desk", variant="cva", vocab_size=full_train.WORDS,
        num_answers=full_train.ANSWERS, feat_dim=full_train.CHANNELS), seed=5)
    args = (container, examples[0], dataset.question_vocab)
    checks = common.Checks()
    full_train.check_example(checks, "cva", model, *args)
    full_train.check_warm_up(checks, "cva", np.log(2000.0) + 0.01, np.zeros(3))
    full_train.check_falls(checks, "cva", [7.6, 7.4, 7.2])
    report("full-train checks pass on good values", checks.failed == 0)
    original = VqaModel.predict_batch

    def shifted_score(self, batch):
        scores = original(self, batch)
        scores[:, examples[0].train_label] += 1e-8
        return scores

    VqaModel.predict_batch = shifted_score
    try:
        rejects("full-train: an example's score off by 1e-8", lambda: fresh(
            lambda c: full_train.check_example(c, "cva", model, *args)))
    finally:
        VqaModel.predict_batch = original
    rejects("full-train: an initial loss far from ln 2000", lambda: fresh(
        lambda c: full_train.check_warm_up(c, "cva", 6.0, np.zeros(3))))
    rejects("full-train: a non-finite gradient", lambda: fresh(
        lambda c: full_train.check_warm_up(c, "cva", np.log(2000.0), np.array([0, np.nan]))))
    rejects("full-train: a loss that does not fall", lambda: fresh(
        lambda c: full_train.check_falls(c, "cva", [7.6, 7.4, 7.4])))

    # eval
    os.makedirs(common.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=common.WORK, prefix="selftest-")
    try:
        state = eval_command.setup(5, work)
        eval_command.timed(state, 0.0)
        checks = fresh(lambda c: eval_command.check(state, c))
        report("eval checks pass on the program's output", checks.failed == 0)
        original = VqaModel.predict_batch

        def flip_one(self, batch):
            """Flip the first prediction of a command between right and wrong."""
            scores = original(self, batch)
            if not flip_one.done:
                row, label = scores[0], batch.labels[0]
                if np.argmax(row) == label:
                    row[np.argsort(row)[-2]] = row.max() + 1.0
                else:
                    row[label] = row.max() + 1.0
                flip_one.done = True
            return scores

        VqaModel.predict_batch = flip_one
        try:
            for variant in eval_command.VARIANTS:
                flip_one.done = False
                eval_command.run_command(state["commands"][variant])
                state["reports"][variant] = {
                    eval_command.read_report(state["commands"][variant])}
        finally:
            VqaModel.predict_batch = original
        rejects("eval: one flipped prediction", lambda: fresh(
            lambda c: eval_command.check(state, c)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # gradcheck
    state = gradcheck.setup(5)
    gradcheck.timed(state, 0.0)
    checks = fresh(lambda c: gradcheck.check(state, c))
    report("gradcheck checks pass on the program's output", checks.failed == 0)
    cells = list(state["cells"])
    variant, seed, _ = cells[-1]
    state["cells"][-1] = (variant, seed, 2e-4)
    rejects("gradcheck: a cell over 1e-4", lambda: fresh(
        lambda c: gradcheck.check(state, c)))
    state["cells"] = cells
    original = VqaModel.instance_loss

    def shifted(self, *a, **k):
        out = original(self, *a, **k)
        out.value = out.value + 1e-8
        return out

    VqaModel.instance_loss = shifted
    try:
        rejects("gradcheck: an unperturbed loss off by 1e-8", lambda: fresh(
            lambda c: gradcheck.check(state, c)))
    finally:
        VqaModel.instance_loss = original


if __name__ == "__main__":
    part1()
    part2()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
