"""Command-line interface: synth, train, eval, ablate, gradcheck.

Every command is reproducible from its flags: all randomness flows from the
run seed through named sub-streams. Exit codes: 0 success, 1 usage error,
2 I/O or format error, 3 validation or numeric failure.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import data, metrics, model, training
from . import tensor as T
from .model import Batch, ModelConfig, VqaModel, VARIANT_LABELS, canonical_variant
from .tensor import InvalidArgumentError, ShapeError, VocabularyError
from .training import TrainConfig, apply_overrides, substream

GRADCHECK_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_dir(args, command):
    if args.out:
        return args.out
    root = os.environ.get("CUBEVQA_OUTPUT_ROOT")
    if root:
        return os.path.join(root, command)
    raise UsageError("--out is required (or set CUBEVQA_OUTPUT_ROOT)")


def _write_atomic(path, text):
    with training.atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    out = _out_dir(args, "synth")
    os.makedirs(out, exist_ok=True)
    train_bundle = data.generate_toy_dataset(args.task, args.size, args.k, args.d,
                                             args.seed, split="train")
    test_bundle = data.generate_toy_dataset(args.task, max(args.size // 4, 1),
                                            args.k, args.d, args.seed, split="test")
    # the test split reuses the training vocabularies
    data.assign_labels(test_bundle.examples, train_bundle.answer_vocab)
    for image_id, feats in test_bundle.container.records.items():
        train_bundle.container.add(image_id, feats)
    data.write_features(train_bundle.container, os.path.join(out, "features.cvaf"))
    data.write_examples(train_bundle.examples, os.path.join(out, "train.txt"))
    data.write_examples(test_bundle.examples, os.path.join(out, "test.txt"))
    data.write_vocab(train_bundle.question_vocab, os.path.join(out, "question_vocab.txt"))
    data.write_vocab(train_bundle.answer_vocab, os.path.join(out, "answer_vocab.txt"))
    print(f"wrote {args.task} dataset to {out}: {len(train_bundle.examples)} train, "
          f"{len(test_bundle.examples)} test, K={args.k}, D={args.d}, "
          f"{len(train_bundle.answer_vocab)} answers")
    return 0


# ---------------------------------------------------------------------------
# shared loading


def _load_prepared(data_dir, splits=("train", "test"), max_question_len=26, trained=None):
    """One ``PreparedDataset`` per named split; other splits are not read.

    The vocabularies are checked against ``trained``, a checkpoint's
    ``(model_config, vocabulary digests)``, before anything else is read.
    Only the feature records the splits' examples name are read and built
    (``data.load_features``).
    """
    question_vocab = data.load_vocab(os.path.join(data_dir, "question_vocab.txt"))
    answer_vocab = data.load_vocab(os.path.join(data_dir, "answer_vocab.txt"))
    if trained:
        _check_vocabularies(*trained, question_vocab, answer_vocab, data_dir)
    examples = [data.load_examples(os.path.join(data_dir, f"{split}.txt"),
                                   num_answers=len(answer_vocab)) for split in splits]
    for split, split_examples in zip(splits, examples):
        if not split_examples:
            raise InvalidArgumentError(f"{data_dir}: {split}.txt holds no examples")
    container = data.load_features(
        os.path.join(data_dir, "features.cvaf"),
        {ex.image_id for split_examples in examples for ex in split_examples})
    return [data.prepare_dataset(container, split_examples, question_vocab,
                                 answer_vocab, max_question_len)
            for split_examples in examples]


def _train_config(args):
    config = training.parse_config_file(args.config) if args.config else TrainConfig()
    overrides = dict(learning_rate=args.lr, batch_size=args.batch_size,
                     epochs=args.epochs, clip_norm=args.clip_norm,
                     dropout=args.dropout, seed=args.seed, profile=args.profile)
    return apply_overrides(config, {k: v for k, v in overrides.items() if v is not None})


def _model_config(variant, train_set, config, literal_spatial=False):
    return ModelConfig.from_profile(
        config.profile, variant=variant,
        vocab_size=len(train_set.question_vocab),
        num_answers=len(train_set.answer_vocab),
        feat_dim=train_set.features[0].shape[1],
        tanh_after_sum=not literal_spatial)


def _fit(vqa_model, train_set, config, log=None, start_epoch=0):
    for epoch in range(start_epoch, config.epochs):
        loss, acc = training.train_epoch(vqa_model, train_set, config, epoch)
        if log:
            log(f"epoch {epoch:3d}  loss {loss:.6f}  train_acc {acc:.4f}")


# ---------------------------------------------------------------------------
# train


def _load_checkpoint(path):
    """The model the checkpoint at ``path`` holds, restored, and what its
    header records of its training: ``(model, vocabulary digests, batch
    size)``. The parsed arrays are freed on return."""
    checkpoint = training.load_checkpoint(path)
    header = checkpoint.header
    try:
        model_config = ModelConfig(**header["model"])
    except (KeyError, TypeError, InvalidArgumentError) as err:
        raise training.CheckpointFormatError(
            f"{path}: bad \"model\" entry in the header: {err!r}") from None
    # checked before any model is built: a header that contradicts the
    # arrays would otherwise allocate the model it describes first
    training.check_layout(
        [(name, shape) for name, (shape, _) in model.parameter_layout(model_config).items()],
        checkpoint.layout, training.CheckpointFormatError, f"{path}: the header's model")
    digests, batch_size = header.get("vocab_sha256"), header.get("batch_size")
    if (not isinstance(digests, dict) or sorted(digests) != ["answer", "question"]
            or not all(isinstance(d, str) for d in digests.values())):
        raise training.CheckpointFormatError(
            f"{path}: no \"vocab_sha256\" entry in the header with the question and "
            f"answer vocabulary digests")
    if type(batch_size) is not int:
        raise training.CheckpointFormatError(
            f"{path}: no integer \"batch_size\" entry in the header")
    # every value is restored from the checkpoint, so the seed is irrelevant
    vqa_model = VqaModel(model_config)
    training.restore_checkpoint(vqa_model.store, checkpoint)
    return vqa_model, digests, batch_size


def _check_vocabularies(model_config, digests, question_vocab, answer_vocab, data_dir):
    """Refuse vocabularies that are not, entry for entry and in order, the
    ones the checkpoint was trained with."""
    for kind, vocab, trained_size in (
            ("question", question_vocab, model_config.vocab_size),
            ("answer", answer_vocab, model_config.num_answers)):
        if data.vocab_digest(vocab) != digests[kind]:
            detail = (f"has {len(vocab)} entries; the model was trained with {trained_size}"
                      if len(vocab) != trained_size else
                      "holds other entries or another order than the model was trained with")
            raise InvalidArgumentError(
                f"{data_dir}: the {kind} vocabulary ({kind}_vocab.txt) {detail}")


def cmd_train(args):
    if args.resume and args.embeddings:
        raise UsageError("--embeddings cannot be combined with --resume: the "
                         "checkpoint restores every embedding row")
    out = _out_dir(args, "train")
    os.makedirs(out, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    config = _train_config(args)
    variant = canonical_variant(args.variant)
    if args.resume:
        vqa_model, digests, trained_batch = _load_checkpoint(args.resume)
    train_set, test_set = _load_prepared(
        args.data, trained=(vqa_model.config, digests) if args.resume else None)
    model_config = _model_config(variant, train_set, config,
                                 literal_spatial=args.literal_spatial)
    if not args.resume:
        vqa_model = VqaModel(model_config, seed=config.seed)
    if args.embeddings:
        rows = data.load_pretrained_embeddings(args.embeddings,
                                               train_set.question_vocab,
                                               model_config.embed_dim)
        table = vqa_model.store["enc.embed"].value
        for index, vector in rows.items():
            table[index] = vector
        print(f"loaded {len(rows)} pretrained embedding rows")
    start_epoch = 0
    if args.resume:
        changed = [f"{name}={value!r}" for name, value in vqa_model.config.to_dict().items()
                   if value != getattr(model_config, name)]
        if changed:
            raise InvalidArgumentError(f"checkpoint {args.resume} was trained as another "
                                       f"model: {', '.join(changed)}")
        # the epoch is derived from the step count, so it needs the batch size
        # the checkpoint was trained with
        if trained_batch != config.batch_size:
            raise InvalidArgumentError(
                f"checkpoint {args.resume} was trained with batch size {trained_batch}, "
                f"not {config.batch_size}")
        steps_per_epoch = -(-train_set.size() // config.batch_size)
        if vqa_model.store.step % steps_per_epoch:
            raise InvalidArgumentError(
                "checkpoint stops mid-epoch; resume requires an epoch boundary")
        start_epoch = vqa_model.store.step // steps_per_epoch
    _fit(vqa_model, train_set, config, log=print, start_epoch=start_epoch)
    # evaluated before anything is written, so a failure leaves the previous
    # run's files in place
    report = metrics.evaluate(vqa_model, test_set)
    checkpoint_path = os.path.join(out, "checkpoint.cvac")
    # what eval and --resume read back; the manifest after it is a report
    header = {"model": model_config.to_dict(), "batch_size": config.batch_size,
              "vocab_sha256": {"question": data.vocab_digest(train_set.question_vocab),
                               "answer": data.vocab_digest(train_set.answer_vocab)}}
    training.save_checkpoint(vqa_model.store, checkpoint_path, header)
    manifest = {
        "command": "train",
        "variant": variant,
        "seed": config.seed,
        "train_config": asdict(config),
        "model": header["model"],
        "vocab_sha256": header["vocab_sha256"],
        "data_dir": os.path.abspath(args.data),
        "checkpoint": os.path.abspath(checkpoint_path),
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "final_metrics": {"test_accuracy": report.accuracy},
    }
    _write_atomic(os.path.join(out, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"test_accuracy {report.accuracy:.4f}")
    print(f"checkpoint written to {checkpoint_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    vqa_model, digests, _ = _load_checkpoint(args.checkpoint)
    (dataset,) = _load_prepared(args.data, (args.split,), vqa_model.config.max_question_len,
                                trained=(vqa_model.config, digests))
    taxonomy = metrics.Taxonomy.load(args.taxonomy) if args.taxonomy else None
    report = metrics.evaluate(vqa_model, dataset, taxonomy=taxonomy)
    sys.stdout.write(report.to_text())
    csv_path = args.csv or os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)),
                                        "eval_report.csv")
    _write_atomic(csv_path, report.to_csv())
    print(f"csv written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def run_ablation(datasets, config, num_seeds, literal_spatial=False, log=None,
                 variants=model.VARIANTS):
    """Train every variant on every dataset over ``num_seeds`` seeds.

    ``datasets`` maps a display name to ``(train_set, test_set)``. Returns
    ``{variant: {dataset_name: [accuracy per seed]}}``.
    """
    results = {v: {name: [] for name in datasets} for v in variants}
    for variant in variants:
        for name, (train_set, test_set) in datasets.items():
            for offset in range(num_seeds):
                run_config = replace(config, seed=config.seed + offset)
                model_config = _model_config(variant, train_set, run_config,
                                             literal_spatial=literal_spatial)
                vqa_model = VqaModel(model_config, seed=run_config.seed)
                _fit(vqa_model, train_set, run_config)
                report = metrics.evaluate(vqa_model, test_set)
                results[variant][name].append(report.accuracy)
                if log:
                    log(f"{VARIANT_LABELS[variant]:<6} {name:<12} seed {run_config.seed}: "
                        f"test_acc {report.accuracy:.4f}")
    return results


def ablation_table(results, dataset_names):
    """Render mean +/- stdev per variant and dataset as text and CSV."""
    text_lines = [f"{'variant':<8}" + "".join(f"{name:>22}" for name in dataset_names)]
    csv_lines = ["variant,dataset,mean,stdev,seeds"]
    for variant in results:
        label = VARIANT_LABELS[variant]
        cells = []
        for name in dataset_names:
            accs = np.array(results[variant][name])
            mean, std = float(accs.mean()), float(accs.std())
            cells.append(f"{mean:.4f} ± {std:.4f}".rjust(22))
            csv_lines.append(f"{label},{name},{mean:.6f},{std:.6f},{accs.size}")
        text_lines.append(f"{label:<8}" + "".join(cells))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def cmd_ablate(args):
    out = _out_dir(args, "ablate")
    os.makedirs(out, exist_ok=True)
    config = _train_config(args)
    datasets = {}
    for data_dir in args.data:
        name = os.path.basename(os.path.normpath(data_dir))
        if name in datasets:
            raise UsageError(f"two --data directories have the basename {name!r}")
        datasets[name] = tuple(_load_prepared(data_dir))
    results = run_ablation(datasets, config, args.seeds,
                           literal_spatial=args.literal_spatial, log=print)
    text, csv = ablation_table(results, list(datasets))
    _write_atomic(os.path.join(out, "table.txt"), text)
    _write_atomic(os.path.join(out, "table.csv"), csv)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def gradcheck_instance(variant, seed, literal_spatial=False):
    """The model and the one-example batch of a gradcheck cell: a tiny random
    instance at K=4, D=8, H=8, h_a=8, E=8, T=3, A=5."""
    config = ModelConfig(variant=variant, vocab_size=9, num_answers=5, feat_dim=8,
                         embed_dim=8, hidden_dim=8, attn_dim=8, fuse_dim=8,
                         tanh_after_sum=not literal_spatial)
    vqa_model = VqaModel(config, seed=seed)
    rng = substream(seed, "gradcheck", variant)
    features = rng.uniform(-1.0, 1.0, size=(4, 8))
    token_ids = rng.integers(0, config.vocab_size, size=3)
    label = int(rng.integers(0, config.num_answers))
    return vqa_model, Batch.of_one(features, token_ids, label)


def gradcheck_model(variant, seed, literal_spatial=False):
    """Finite-difference check of a training step's gradients on a tiny instance.

    Returns ``(max_relative_error, per_parameter)`` over every parameter of
    the variant. Each parameter is probed from the first forward stage it
    feeds (``VqaModel.stage_probes``), which gives the same bits as probing
    with the whole forward.
    """
    vqa_model, batch = gradcheck_instance(variant, seed, literal_spatial)
    vqa_model.train_step_forward_backward([batch])
    grads = {name: vqa_model.store[name].grad for name in vqa_model.store.names()}

    # the probes perturb the store arrays in place, which the model's leaves alias
    values = vqa_model.store.values()
    worst, per_name = 0.0, {}
    for names, f in vqa_model.stage_probes(batch):
        stage_worst, stage_errors = T.finite_difference_check(
            f, {name: values[name] for name in names}, grads)
        worst = max(worst, stage_worst)
        per_name.update(stage_errors)
    return worst, per_name


def cmd_gradcheck(args):
    variants = list(model.VARIANTS) if args.variant == "all" else [canonical_variant(args.variant)]
    cell_variants = [variant for variant in variants for _ in range(args.seeds)]
    cell_seeds = [args.seed + offset for _ in variants for offset in range(args.seeds)]
    check = functools.partial(gradcheck_model, literal_spatial=args.literal_spatial)
    # each cell is an independent deterministic job; results are aggregated
    # in the fixed cell order, so parallel execution changes nothing
    results = None
    workers = min(T.USABLE_CORES, len(cell_seeds))
    if workers > 1:
        import concurrent.futures
        # a pool needs named semaphores; without them it raises
        # NotImplementedError, and the cells run in this process
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(check, cell_variants, cell_seeds))
        except (OSError, NotImplementedError):
            results = None
    if results is None:
        results = list(map(check, cell_variants, cell_seeds))
    worst_overall = 0.0
    worst_name = None
    group_worst = {}
    for variant, (_, per_name) in zip(cell_variants, results):
        for name, err in per_name.items():
            key = (variant, name.split(".")[0])
            group_worst[key] = max(group_worst.get(key, 0.0), err)
            if err > worst_overall:
                worst_overall = err
                worst_name = f"{variant}:{name}"
    for variant, group in sorted(group_worst):
        print(f"{variant:<6} {group:<6} max_rel_err {group_worst[(variant, group)]:.3e}")
    if worst_overall > GRADCHECK_TOLERANCE:
        print(f"FAIL: {worst_name} max_rel_err {worst_overall:.3e} "
              f"exceeds {GRADCHECK_TOLERANCE:.0e}", file=sys.stderr)
        return 3
    print(f"OK: max_rel_err {worst_overall:.3e} within {GRADCHECK_TOLERANCE:.0e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = _Parser(prog="cubevqa",
                     description="Channel/region attention VQA: synthesize, train, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic diagnostic dataset")
    p.add_argument("--task", choices=("spatial", "channel", "mixed"), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    def add_train_flags(q):
        q.add_argument("--config", default=None, help="key = value config file")
        q.add_argument("--lr", default=None)
        q.add_argument("--batch-size", dest="batch_size", default=None)
        q.add_argument("--epochs", default=None)
        q.add_argument("--clip-norm", dest="clip_norm", default=None)
        q.add_argument("--dropout", default=None)
        q.add_argument("--seed", default=None)
        q.add_argument("--profile", choices=("desk", "full"), default=None)
        q.add_argument("--literal-spatial", action="store_true",
                       help="score regions with the question term outside the "
                            "tanh (weights become question-independent)")

    p = sub.add_parser("train", help="train one variant on a dataset directory")
    p.add_argument("--variant", required=True,
                   choices=model.VARIANTS + tuple(model.VARIANT_ALIASES))
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--embeddings", default=None,
                   help="pretrained embedding text file (token v1 ... vE per line)")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train all four variants over several seeds")
    p.add_argument("--data", action="append", required=True,
                   help="dataset directory (repeatable)")
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", type=_positive_int, default=5)
    add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny instance")
    p.add_argument("--variant", default="all",
                   choices=model.VARIANTS + tuple(model.VARIANT_ALIASES) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of seeds to sweep")
    p.add_argument("--literal-spatial", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (OSError, training.FormatError) as err:
        print(f"i/o or format error: {err}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, ShapeError, VocabularyError,
            metrics.TaxonomyError, FloatingPointError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
