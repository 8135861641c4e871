"""eval: the ``cubevqa eval`` command, run in process through ``cli.main``.

Inputs: a ``mixed`` toy dataset directory at D=2048 whose images have from
4 to 12 regions (80 training and 20 test images per region count, shuffled
together, as a detector's variable output would be), a three-level answer
taxonomy, and two desk-profile checkpoints of initial weights written by
``cubevqa train --epochs 0``: cva, and ra as the control without a channel
scorer. (One training epoch on this data takes seconds, which set-up cannot
afford three times.) A round evaluates the default ``test`` split with the
taxonomy once per checkpoint; each command's wall time covers parsing,
restore, the batched forward, consensus and WUPS scoring and the CSV.
"""

import contextlib
import io
import json
import os
import shutil
import time
from types import SimpleNamespace

import numpy as np

import common
import reference

from cubevqa import cli, data, training

VARIANTS = ("cva", "ra")
REGION_COUNTS = range(4, 13)
CHANNELS = 2048
TRAIN_PER_K, TEST_PER_K = 80, 20
EVAL_BATCH = 64  # metrics.evaluate's batch size
SETUPS = 3
MIN_ROUNDS = 2
TIE_GAP = 1e-9
CSV_TOLERANCE = 5e-7  # the CSV prints six decimals

TAXONOMY = [("entity", "color"), ("entity", "shape"), ("entity", "size"),
            ("color", "warm"), ("color", "cool")]
TAXONOMY += [("warm", c) for c in ("red", "yellow", "orange", "magenta")]
TAXONOMY += [("cool", c) for c in ("green", "blue", "purple", "cyan")]
TAXONOMY += [(family, value) for family, values in data.FAMILIES for value in values]


def generate(seed, directory):
    """Write the dataset directory; return the test examples and vocabularies."""
    train, test = [], []
    container = data.FeatureContainer()
    for k in REGION_COUNTS:
        for split, size, out in (("train", TRAIN_PER_K, train), ("test", TEST_PER_K, test)):
            bundle = data.generate_toy_dataset("mixed", size, k, CHANNELS, seed,
                                               split=f"{split}{k}")
            for image_id, features in bundle.container.records.items():
                container.add(image_id, features)
            out.extend(bundle.examples)
    rng = training.substream(seed, "perfbench", "eval order")
    train = [train[i] for i in rng.permutation(len(train))]
    test = [test[i] for i in rng.permutation(len(test))]
    question_vocab, answer_vocab = data.build_vocab(train)
    data.assign_labels(train, answer_vocab)
    data.assign_labels(test, answer_vocab)
    os.makedirs(directory, exist_ok=True)
    data.write_features(container, os.path.join(directory, "features.cvaf"))
    data.write_examples(train, os.path.join(directory, "train.txt"))
    data.write_examples(test, os.path.join(directory, "test.txt"))
    data.write_vocab(question_vocab, os.path.join(directory, "question_vocab.txt"))
    data.write_vocab(answer_vocab, os.path.join(directory, "answer_vocab.txt"))
    with open(os.path.join(directory, "taxonomy.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{parent}\t{child}\n" for parent, child in TAXONOMY)
    return container, test, question_vocab, answer_vocab


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup(seed, work):
    shutil.rmtree(work, ignore_errors=True)
    directory = os.path.join(work, "data")
    container, test, question_vocab, answer_vocab = generate(seed, directory)
    commands = {}
    for variant in VARIANTS:
        out = os.path.join(work, variant)
        code = quiet_main(["train", "--variant", variant, "--data", directory,
                           "--out", out, "--config",
                           os.path.join(common.ROOT, "configs", "desk.cfg"),
                           "--epochs", "0", "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"cubevqa train --variant {variant} exited with {code}")
        commands[variant] = ["eval", "--checkpoint", os.path.join(out, "checkpoint.cvac"),
                             "--data", directory, "--taxonomy",
                             os.path.join(directory, "taxonomy.txt"),
                             "--csv", os.path.join(out, "eval.csv")]
    run_command(commands["cva"])
    return {"work": work, "commands": commands, "container": container, "test": test,
            "question_vocab": question_vocab, "answer_vocab": answer_vocab,
            "reports": {v: set() for v in VARIANTS}}


def run_command(argv):
    code = quiet_main(argv)
    if code != 0:
        raise RuntimeError(f"cubevqa {' '.join(argv)} exited with {code}")


def read_report(argv):
    """Accuracy, WUPS@0.9 and WUPS@0.0 from the CSV the command wrote."""
    with open(argv[argv.index("--csv") + 1], encoding="utf-8") as fh:
        rows = {(metric, name): value for metric, name, value in
                (line.strip().split(",") for line in fh.readlines()[1:])}
    return (float(rows[("accuracy", "all")]), float(rows[("wups", "0.9")]),
            float(rows[("wups", "0.0")]))


def timed(state, seconds):
    """Whole rounds, one command per checkpoint, until ``seconds`` have passed."""
    times = {v: [] for v in VARIANTS}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for variant in VARIANTS:
            t0 = time.perf_counter()
            run_command(state["commands"][variant])
            times[variant].append(time.perf_counter() - t0)
            state["reports"][variant].add(read_report(state["commands"][variant]))
        rounds += 1
    return {"times": times, "examples": len(state["test"]) * rounds * len(VARIANTS)}


def units(samples):
    commands = sum(len(t) for t in samples["times"].values())
    return (commands, samples["examples"], sum(sum(t) for t in samples["times"].values()))


def reference_report(state, variant):
    """Accuracy and WUPS of the reference's predictions, and the near ties."""
    checkpoint = os.path.join(state["work"], variant, "checkpoint.cvac")
    with open(os.path.join(os.path.dirname(checkpoint), "manifest.json"),
              encoding="utf-8") as fh:
        config = SimpleNamespace(**json.load(fh)["model"])
    ref = reference.Reference(reference.read_checkpoint(checkpoint), config)
    index = {tok: i for i, tok in enumerate(state["question_vocab"])}
    answers = state["answer_vocab"]
    predictions, ties = [], 0
    for ex in state["test"]:
        scores = ref.scores(state["container"][ex.image_id].astype(np.float64),
                            [index.get(t, 0) for t in ex.tokens])
        top2 = np.sort(scores)[-2:]
        ties += int(top2[1] - top2[0] <= TIE_GAP)
        predictions.append(answers[int(np.argmax(scores))])
    tree = reference.Tree(TAXONOMY)
    truths = [answers[ex.train_label] for ex in state["test"]]
    accuracy = float(np.mean([reference.consensus(p, ex.human_answers)
                              for p, ex in zip(predictions, state["test"])]))
    return (accuracy, tree.wups(predictions, truths, 0.9),
            tree.wups(predictions, truths, 0.0)), ties


def check(state, checks):
    """Every command's accuracy and WUPS equal the reference's, within the CSV's
    rounding plus one example's weight per near tie."""
    for variant in VARIANTS:
        expected, ties = reference_report(state, variant)
        tolerance = CSV_TOLERANCE + ties / len(state["test"])
        reports = sorted(state["reports"][variant])
        ok = len(reports) == 1 and all(abs(a - b) <= tolerance
                                       for a, b in zip(reports[0], expected))
        checks.expect(f"{variant}: eval accuracy and WUPS match the reference",
                      ok, (reports, expected, ties))


def run(seed, seconds, trace, import_s):
    checks = common.Checks()
    work = os.path.join(common.WORK, f"eval-{os.getpid()}")
    try:
        state, setups = common.timed_setups(lambda: setup(seed, work), SETUPS)
        samples, tracer, overhead = common.run_phases(state, seconds, trace, timed, units)
        check(state, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commands, examples, busy = units(samples)
    attempted = commands + len(checks.results)
    if trace:
        common.write_trace(tracer, "eval", seed)
        batches = commands * -(-len(state["test"]) // EVAL_BATCH)
        return checks, attempted, None, common.layer_metrics(
            tracer.summary(), batches, commands=commands, overhead=overhead)
    e2e = common.end_to_end(import_s + common.median(setups), examples, busy,
                            samples["times"])
    return checks, attempted, e2e, None
