"""End-to-end command behavior: synth, train, eval, ablate, gradcheck."""

import dataclasses
import json
import os
import shutil
import struct
import weakref
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubevqa.cli as cli
import cubevqa.tensor as T
from cubevqa import data, training
from cubevqa.metrics import Taxonomy, TaxonomyError
from cubevqa.model import ModelConfig, VqaModel
from cubevqa.tensor import InvalidArgumentError


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ds") / "toy")
    code = run(["synth", "--task", "mixed", "--out", out, "--size", "60",
                "--k", "4", "--d", "16", "--seed", "3"])
    assert code == 0
    return out


TRAIN_FLAGS = ["--lr", "0.01", "--batch-size", "8", "--epochs", "2",
               "--dropout", "0", "--seed", "1"]


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_files(tiny_dataset):
    for name in ("features.cvaf", "train.txt", "test.txt",
                 "question_vocab.txt", "answer_vocab.txt"):
        assert os.path.exists(os.path.join(tiny_dataset, name))


def test_synth_deterministic_bytes(tmp_path):
    outs = []
    for run_dir in ("a", "b"):
        out = str(tmp_path / run_dir)
        assert run(["synth", "--task", "spatial", "--out", out, "--size", "30",
                    "--k", "4", "--d", "16", "--seed", "9"]) == 0
        outs.append(out)
    for name in ("features.cvaf", "train.txt", "test.txt",
                 "question_vocab.txt", "answer_vocab.txt"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_synth_rejects_k1(tmp_path, capsys):
    code = run(["synth", "--task", "spatial", "--out", str(tmp_path / "x"),
                "--size", "10", "--k", "1", "--d", "16", "--seed", "0"])
    assert code == 3
    assert "validation" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert run(["train", "--variant", "warp", "--data", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert run([]) == 1
    assert run(["synth", "--task", "spatial"]) == 1  # no --out, no env root
    # a sweep over no seeds checks nothing and must not report success
    assert run(["gradcheck", "--seeds", "0"]) == 1
    assert run(["gradcheck", "--variant", "ra", "--seeds", "-1"]) == 1
    assert run(["ablate", "--data", "x", "--out", "y", "--seeds", "0"]) == 1
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--task", "spatial", "--size", "10", "--k", "4", "--d", "16"],
    ["train", "--variant", "ra", "--data", None, "--epochs", "1"],
    ["gradcheck", "--variant", "ra"]], ids=["synth", "train", "gradcheck"])
def test_a_negative_seed_exits_three_naming_it(argv, tiny_dataset, tmp_path, capsys):
    argv = [tiny_dataset if arg is None else arg for arg in argv]
    if argv[0] != "gradcheck":
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv + ["--seed", "-1"]) == 3
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_output_root_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEVQA_OUTPUT_ROOT", str(tmp_path / "root"))
    assert run(["synth", "--task", "spatial", "--size", "10", "--k", "4",
                "--d", "16", "--seed", "0"]) == 0
    assert os.path.exists(str(tmp_path / "root" / "synth" / "features.cvaf"))


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_manifest(tiny_dataset, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = run(["train", "--variant", "cva", "--data", tiny_dataset,
                "--out", out] + TRAIN_FLAGS)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "epoch   0" in stdout and "test_accuracy" in stdout
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["variant"] == "cva"
    assert manifest["train_config"]["learning_rate"] == 0.01
    assert os.path.exists(manifest["checkpoint"])
    assert "test_accuracy" in manifest["final_metrics"]
    assert manifest["vocab_sha256"] == {
        kind: data.vocab_digest(data.load_vocab(os.path.join(tiny_dataset,
                                                             f"{kind}_vocab.txt")))
        for kind in ("question", "answer")}
    # the checkpoint's header records what eval and --resume read back
    assert training.load_checkpoint(manifest["checkpoint"]).header == {
        "model": manifest["model"], "batch_size": 8,
        "vocab_sha256": manifest["vocab_sha256"]}


def test_train_deterministic_checkpoints(tiny_dataset, tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert run(["train", "--variant", "ra", "--data", tiny_dataset,
                    "--out", out] + TRAIN_FLAGS) == 0
        blobs.append(open(os.path.join(out, "checkpoint.cvac"), "rb").read())
    assert blobs[0] == blobs[1]


def test_train_resume_matches_uninterrupted(tiny_dataset, tmp_path):
    full_out = str(tmp_path / "full")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out",
                full_out, "--lr", "0.01", "--batch-size", "8", "--epochs", "4",
                "--dropout", "0.2", "--seed", "5"]) == 0
    half_out = str(tmp_path / "half")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out",
                half_out, "--lr", "0.01", "--batch-size", "8", "--epochs", "2",
                "--dropout", "0.2", "--seed", "5"]) == 0
    resumed_out = str(tmp_path / "resumed")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out",
                resumed_out, "--resume", os.path.join(half_out, "checkpoint.cvac"),
                "--lr", "0.01", "--batch-size", "8", "--epochs", "4",
                "--dropout", "0.2", "--seed", "5"]) == 0
    full = open(os.path.join(full_out, "checkpoint.cvac"), "rb").read()
    resumed = open(os.path.join(resumed_out, "checkpoint.cvac"), "rb").read()
    assert full == resumed


def test_train_lr_zero_flat_loss(tiny_dataset, tmp_path, capsys):
    out = str(tmp_path / "flat")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out", out,
                "--lr", "0", "--batch-size", "8", "--epochs", "3",
                "--dropout", "0", "--seed", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch")]
    losses = {l.split()[3] for l in lines}
    assert len(losses) == 1


def test_train_config_file_with_flag_override(tiny_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = 0.5\nbatch_size = 8\nepochs = 1\ndropout = 0\n")
    out = str(tmp_path / "cfgrun")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out", out,
                "--config", str(cfg), "--lr", "0.01", "--seed", "0"]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["train_config"]["learning_rate"] == 0.01
    assert manifest["train_config"]["batch_size"] == 8


SETTINGS = ["learning_rate", "batch_size", "epochs", "clip_norm", "dropout", "seed", "profile"]


def test_the_seven_settings_are_the_fields_the_config_keys_and_the_flags(tmp_path, capsys):
    assert [f.name for f in dataclasses.fields(training.TrainConfig)] == SETTINGS
    values = dict(learning_rate="0.5", batch_size="3", epochs="2", clip_norm="4.0",
                  dropout="0.25", seed="9", profile="full")
    expected = training.apply_overrides(training.TrainConfig(), values)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    assert training.parse_config_file(str(cfg)) == expected
    flags = ["--lr", "0.5", "--batch-size", "3", "--epochs", "2", "--clip-norm", "4.0",
             "--dropout", "0.25", "--seed", "9", "--profile", "full"]
    for command in (["train", "--variant", "cva"], ["ablate"]):
        args = cli.build_parser().parse_args(command + ["--data", "d"] + flags)
        assert set(SETTINGS) <= set(vars(args))
        assert cli._train_config(args) == expected
    # Adam's betas and epsilon are constants, not keys
    cfg.write_text("beta1 = 0.9\n")
    assert run(["train", "--variant", "cva", "--data", str(tmp_path), "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 3
    assert "unknown config key 'beta1'" in capsys.readouterr().err
    # the ModelConfig defaults are the desk dimensions
    sizes = dict(variant="cva", vocab_size=7, num_answers=5, feat_dim=6)
    assert ModelConfig(**sizes) == ModelConfig.from_profile("desk", **sizes)


def test_train_non_numeric_values_exit_three(tiny_dataset, tmp_path, capsys):
    out = str(tmp_path / "bad")
    for flags in (["--lr", "abc"], ["--epochs", "1.5"]):
        assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out", out]
                   + flags) == 3
        err = capsys.readouterr().err
        assert "validation error" in err and repr(flags[1]) in err
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("learning_rate = fast\n")
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out", out,
                "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "'learning_rate'" in err and "'fast'" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_train_non_finite_embeddings_exit_two_before_any_checkpoint(tiny_dataset, tmp_path,
                                                                    capsys, bad):
    # the desk profile embeds tokens in 16 dimensions
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text("what" + " 0.5" * 16 + "\ncolor" + " 0.5" * 15 + f" {bad}\n")
    out = tmp_path / "nan"
    assert run(["train", "--variant", "ca", "--data", tiny_dataset, "--out", str(out),
                "--embeddings", str(embeddings)] + TRAIN_FLAGS) == 2
    assert f"{embeddings}:2" in capsys.readouterr().err
    assert not (out / "checkpoint.cvac").exists()


def test_train_refuses_a_question_over_the_maximum(tiny_dataset, tmp_path, capsys):
    data_dir = str(tmp_path / "long")
    shutil.copytree(tiny_dataset, data_dir)
    path = os.path.join(data_dir, "train.txt")
    lines = open(path).read().splitlines(keepends=True)
    head, rest = lines[0].split("\t", 1)
    image_id, token = head.split()[:2]
    lines[0] = f"{image_id} {' '.join([token] * 27)}\t{rest}"
    open(path, "w").writelines(lines)
    assert run(["train", "--variant", "ra", "--data", data_dir,
                "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == 3
    assert "maximum is 26" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_refuses_an_empty_split_before_training(split, tiny_dataset, tmp_path,
                                                      capsys):
    data_dir = str(tmp_path / "empty")
    shutil.copytree(tiny_dataset, data_dir)
    open(os.path.join(data_dir, f"{split}.txt"), "w").close()
    capsys.readouterr()
    assert run(["train", "--variant", "cva", "--data", data_dir,
                "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == 3
    captured = capsys.readouterr()
    assert f"{split}.txt" in captured.err
    assert "epoch" not in captured.out


def test_failed_train_leaves_the_previous_run_as_it_was(trained_run, tiny_dataset,
                                                        tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "run")
    shutil.copytree(trained_run, out)
    names = ("checkpoint.cvac", "manifest.json")
    before = [open(os.path.join(out, name), "rb").read() for name in names]

    def failing_evaluate(*args, **kwargs):
        raise T.InvalidArgumentError("evaluation failed")

    monkeypatch.setattr(cli.metrics, "evaluate", failing_evaluate)
    assert run(["train", "--variant", "cva", "--data", tiny_dataset, "--out", out,
                "--literal-spatial"] + TRAIN_FLAGS) == 3
    assert "evaluation failed" in capsys.readouterr().err
    assert [open(os.path.join(out, name), "rb").read() for name in names] == before


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def trained_run(tiny_dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained") / "run")
    assert run(["train", "--variant", "cva", "--data", tiny_dataset,
                "--out", out] + TRAIN_FLAGS) == 0
    return out


def test_eval_reports_and_csv(trained_run, tiny_dataset, tmp_path, capsys):
    csv_path = str(tmp_path / "report.csv")
    code = run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "WUPS omitted" in out or "taxonomy" in out
    csv = open(csv_path).read()
    assert csv.startswith("metric,name,value")
    assert "wups" not in csv  # no taxonomy supplied


def test_eval_deterministic(trained_run, tiny_dataset, tmp_path, capsys):
    args = ["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
            "--data", tiny_dataset, "--csv", str(tmp_path / "r.csv")]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_with_taxonomy(trained_run, tiny_dataset, tmp_path, capsys):
    lines = ["entity\tcolor", "entity\tshape", "entity\tsize"]
    for color in data.COLOR_WORDS:
        lines.append(f"color\t{color}")
    for fam, values in data.FAMILIES:
        for value in values:
            lines.append(f"{fam}\t{value}")
    tax = tmp_path / "tax.txt"
    tax.write_text("\n".join(lines) + "\n")
    code = run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", tiny_dataset, "--taxonomy", str(tax),
                "--csv", str(tmp_path / "t.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "wups@0.9" in out and "wups@0.0" in out


def test_eval_reads_only_the_scored_split(trained_run, tiny_dataset, tmp_path, capsys):
    checkpoint = os.path.join(trained_run, "checkpoint.cvac")
    csv_path = str(tmp_path / "r.csv")
    assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                "--split", "test", "--csv", csv_path]) == 0
    full = capsys.readouterr().out, open(csv_path).read()
    test_only = str(tmp_path / "test_only")
    shutil.copytree(tiny_dataset, test_only)
    os.remove(os.path.join(test_only, "train.txt"))
    assert run(["eval", "--checkpoint", checkpoint, "--data", test_only,
                "--split", "test", "--csv", csv_path]) == 0
    assert (capsys.readouterr().out, open(csv_path).read()) == full


def poison_record(path, image_id):
    """Overwrite the first value of ``image_id``'s record in the CVAF file at
    ``path`` with NaN."""
    blob = bytearray(open(path, "rb").read())
    offset = 12  # magic, version and record count
    while True:
        (size,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2:offset + 2 + size].decode("utf-8")
        k, d = struct.unpack_from("<II", blob, offset + 2 + size)
        payload = offset + 2 + size + 8
        if name == image_id:
            struct.pack_into("<f", blob, payload, float("nan"))
            break
        offset = payload + 4 * k * d
    open(path, "wb").write(bytes(blob))


def test_eval_scans_only_the_records_of_the_scored_split(trained_run, tiny_dataset,
                                                         tmp_path, capsys):
    checkpoint = os.path.join(trained_run, "checkpoint.cvac")
    csv_path = str(tmp_path / "r.csv")
    assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                "--csv", csv_path]) == 0
    clean = capsys.readouterr().out, open(csv_path).read()
    poisoned = str(tmp_path / "poisoned")
    shutil.copytree(tiny_dataset, poisoned)
    poison_record(os.path.join(poisoned, "features.cvaf"), "train_000000")
    assert run(["eval", "--checkpoint", checkpoint, "--data", poisoned,
                "--csv", csv_path]) == 0
    assert (capsys.readouterr().out, open(csv_path).read()) == clean
    assert run(["eval", "--checkpoint", checkpoint, "--data", poisoned,
                "--split", "train", "--csv", csv_path]) == 3
    assert "'train_000000' contain non-finite" in capsys.readouterr().err
    poison_record(os.path.join(poisoned, "features.cvaf"), "test_000000")
    assert run(["eval", "--checkpoint", checkpoint, "--data", poisoned,
                "--csv", csv_path]) == 3
    assert "'test_000000' contain non-finite" in capsys.readouterr().err


def test_eval_architecture_mismatch(trained_run, tmp_path, capsys):
    other = str(tmp_path / "other")
    code = run(["synth", "--task", "spatial", "--out", other, "--size", "20",
                "--k", "4", "--d", "24", "--seed", "0"])
    assert code == 0
    code = run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", other])
    assert code == 3


def test_eval_vocabulary_mismatch(trained_run, tiny_dataset, tmp_path, capsys):
    # same K and D as the training data, but smaller question vocabularies
    for task, size in (("spatial", 9), ("channel", 7)):
        other = str(tmp_path / task)
        assert run(["synth", "--task", task, "--out", other, "--size", "20",
                    "--k", "4", "--d", "16", "--seed", "0"]) == 0
        capsys.readouterr()
        code = run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                    "--data", other, "--csv", str(tmp_path / f"{task}.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert (f"question vocabulary (question_vocab.txt) has {size} entries; "
                f"the model was trained with 13") in err
    # the training data with one answer more
    longer = str(tmp_path / "longer")
    shutil.copytree(tiny_dataset, longer)
    with open(os.path.join(longer, "answer_vocab.txt"), "a") as fh:
        fh.write("extra\n")
    assert run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", longer, "--csv", str(tmp_path / "longer.csv")]) == 3
    assert ("answer vocabulary (answer_vocab.txt) has 14 entries; the model was "
            "trained with 13") in capsys.readouterr().err


def test_eval_refuses_a_vocabulary_that_lists_an_entry_twice(tiny_dataset, tmp_path, capsys):
    # mapped through a dict, a repeated answer's later id would win, and the
    # answer would be two output classes. The checkpoint is built for the
    # repeating vocabulary, so its digests match and only the repeat is wrong.
    repeated = str(tmp_path / "repeated")
    shutil.copytree(tiny_dataset, repeated)
    path = os.path.join(repeated, "answer_vocab.txt")
    answers = data.load_vocab(path)
    answers.append(answers[1])
    data.write_vocab(answers, path)
    questions = data.load_vocab(os.path.join(repeated, "question_vocab.txt"))
    config = ModelConfig(variant="cva", vocab_size=len(questions), num_answers=len(answers),
                         feat_dim=16)
    checkpoint = str(tmp_path / "checkpoint.cvac")
    training.save_checkpoint(VqaModel(config).store, checkpoint, {
        "model": config.to_dict(), "batch_size": 8,
        "vocab_sha256": {"question": data.vocab_digest(questions),
                         "answer": data.vocab_digest(answers)}})
    assert run(["eval", "--checkpoint", checkpoint, "--data", repeated,
                "--csv", str(tmp_path / "r.csv")]) == 2
    assert f"{path}:{len(answers)}: {answers[1]!r} repeats line 2" in capsys.readouterr().err


def test_eval_refuses_another_vocabulary_before_reading_features(
        trained_run, tiny_dataset, tmp_path, monkeypatch, capsys):
    longer = str(tmp_path / "longer")
    shutil.copytree(tiny_dataset, longer)
    with open(os.path.join(longer, "answer_vocab.txt"), "a") as fh:
        fh.write("extra\n")

    def unread(*args, **kwargs):
        raise AssertionError("features.cvaf was read")

    monkeypatch.setattr(data, "load_features", unread)
    assert run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", longer, "--csv", str(tmp_path / "longer.csv")]) == 3
    assert ("answer vocabulary (answer_vocab.txt) has 14 entries; the model was "
            "trained with 13") in capsys.readouterr().err


def test_eval_reordered_answer_vocabulary_is_refused(trained_run, tiny_dataset, tmp_path,
                                                     capsys):
    # same entries and size, but two answer ids swapped: every prediction of
    # those answers would be scored against the other one
    swapped = str(tmp_path / "swapped")
    shutil.copytree(tiny_dataset, swapped)
    path = os.path.join(swapped, "answer_vocab.txt")
    lines = open(path).read().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    open(path, "w").write("".join(lines))
    capsys.readouterr()
    assert run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", swapped, "--csv", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert "answer vocabulary" in err and "answer_vocab.txt" in err


def split_header(path):
    """A checkpoint's bytes up to its step counter's end, and the header; the
    header's byte count and the checksum follow the first."""
    blob = open(path, "rb").read()
    header = training.load_checkpoint(path).header
    size = len(json.dumps(header, sort_keys=True).encode("utf-8"))
    assert struct.unpack_from("<I", blob, len(blob) - size - 8) == (size,)
    return blob[:len(blob) - size - 8], header


def with_header(trained_run, run_dir, header):
    """A copy of ``trained_run``'s checkpoint in ``run_dir`` whose header is
    ``header``: bytes, or an object written as JSON, under a matching
    checksum. Returns its path."""
    body, _ = split_header(os.path.join(trained_run, "checkpoint.cvac"))
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    run_dir.mkdir()
    path = run_dir / "checkpoint.cvac"
    tail = body[-8:] + struct.pack("<I", len(header)) + header
    path.write_bytes(body[:-8] + tail + struct.pack("<I", zlib.crc32(tail)))
    return str(path)


def test_eval_malformed_header_is_format_error(trained_run, tiny_dataset, tmp_path,
                                               capsys):
    _, header = split_header(os.path.join(trained_run, "checkpoint.cvac"))
    broken = [dict(header, model=dict(header["model"], extra=1)),
              dict(header, model={k: v for k, v in header["model"].items()
                                  if k != "feat_dim"}),
              {k: v for k, v in header.items() if k != "model"},
              dict(header, model=[1, 2]), [header], b"{", b"",
              {k: v for k, v in header.items() if k != "vocab_sha256"},
              dict(header, vocab_sha256={"answer": header["vocab_sha256"]["answer"]}),
              dict(header, vocab_sha256=dict(header["vocab_sha256"], question=1)),
              {k: v for k, v in header.items() if k != "batch_size"},
              dict(header, batch_size=8.0)]
    for case, content in enumerate(broken):
        checkpoint = with_header(trained_run, tmp_path / str(case), content)
        assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                    "--csv", str(tmp_path / "r.csv")]) == 2, case
        err = capsys.readouterr().err
        assert "format error" in err and "header" in err, case
    # a missing batch size is named, and refuses a resume too
    assert resume(str(tmp_path / str(len(broken) - 2)), tiny_dataset,
                  str(tmp_path / "resumed")) == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,first", [("attn_dim", 94, "chan.w_question"),
                                               ("hidden_dim", 10 ** 6, "enc.w_update")])
def test_header_contradicting_the_arrays_is_format_error_before_any_model(
        trained_run, tiny_dataset, tmp_path, capsys, monkeypatch, field, value, first):
    # the header's model implies other parameter shapes than the file holds:
    # refused from the shapes alone, before that model is built (allocated)
    _, header = split_header(os.path.join(trained_run, "checkpoint.cvac"))
    header["model"][field] = value
    checkpoint = with_header(trained_run, tmp_path / "contradicting", header)

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "VqaModel", no_model)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                "--csv", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "format error" in err and f"parameter {first!r} of shape" in err


def test_non_utf8_header_is_format_error(trained_run, tiny_dataset, tmp_path, capsys):
    checkpoint = with_header(trained_run, tmp_path / "latin", b"\xff\xfe{}")
    capsys.readouterr()
    assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                "--csv", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "format error" in err and "header" in err and "UTF-8" in err
    assert resume(str(tmp_path / "latin"), tiny_dataset, str(tmp_path / "resumed")) == 2
    assert "format error" in capsys.readouterr().err


def test_parsed_checkpoint_is_freed_before_data_loads_or_training_runs(
        trained_run, tiny_dataset, tmp_path, monkeypatch):
    # the parsed arrays are views of one buffer of every payload, three
    # parameter vectors at full scale: eval and --resume let them go once
    # they are restored
    views, alive = [], []
    load = training.load_checkpoint

    def recording_load(path):
        checkpoint = load(path)
        views.extend(weakref.ref(a) for a in [*checkpoint.values, *checkpoint.moments])
        return checkpoint

    def counting(real):
        def wrapper(*args, **kwargs):
            alive.append(sum(view() is not None for view in views))
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "load_checkpoint", recording_load)
    monkeypatch.setattr(cli, "_load_prepared", counting(cli._load_prepared))
    monkeypatch.setattr(training, "train_epoch", counting(training.train_epoch))
    assert run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", str(tmp_path / "r.csv")]) == 0
    assert resume(trained_run, tiny_dataset, str(tmp_path / "resumed")) == 0
    assert views and len(alive) == 3 and alive == [0, 0, 0]


@pytest.mark.parametrize("version", [1, 2])
def test_version_1_checkpoint_is_refused(trained_run, tiny_dataset, tmp_path, capsys,
                                         version):
    # versions 1 and 2 named every array three times; the version alone refuses them
    blob = open(os.path.join(trained_run, "checkpoint.cvac"), "rb").read()
    path = tmp_path / f"v{version}.cvac"
    path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--data", tiny_dataset]) == 2
    assert f"unsupported version {version}" in capsys.readouterr().err


def resume(trained_run, data_dir, out, *flags):
    """``train --resume`` of ``trained_run``'s checkpoint for a third epoch."""
    flags = list(flags) or TRAIN_FLAGS
    return run(["train", "--variant", "cva", "--data", data_dir, "--out", out,
                "--resume", os.path.join(trained_run, "checkpoint.cvac")]
               + flags + ["--epochs", "3"])


def test_train_resume_refuses_other_vocabulary(trained_run, tiny_dataset, tmp_path,
                                               capsys):
    swapped = str(tmp_path / "swapped")
    shutil.copytree(tiny_dataset, swapped)
    path = os.path.join(swapped, "answer_vocab.txt")
    lines = open(path).read().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    open(path, "w").write("".join(lines))
    capsys.readouterr()
    out = str(tmp_path / "resumed")
    assert resume(trained_run, swapped, out) == 3
    err = capsys.readouterr().err
    assert "answer vocabulary" in err and "answer_vocab.txt" in err
    assert not os.path.exists(os.path.join(out, "checkpoint.cvac"))
    # the untouched data resumes
    assert resume(trained_run, tiny_dataset, out) == 0


def test_train_resume_refuses_another_vocabulary_before_reading_features(
        trained_run, tiny_dataset, tmp_path, monkeypatch, capsys):
    longer = str(tmp_path / "longer")
    shutil.copytree(tiny_dataset, longer)
    with open(os.path.join(longer, "answer_vocab.txt"), "a") as fh:
        fh.write("extra\n")

    def unread(*args, **kwargs):
        raise AssertionError("features.cvaf was read")

    monkeypatch.setattr(data, "load_features", unread)
    capsys.readouterr()
    assert resume(trained_run, longer, str(tmp_path / "resumed")) == 3
    assert ("answer vocabulary (answer_vocab.txt) has 14 entries; the model was "
            "trained with 13") in capsys.readouterr().err


def test_train_resume_refuses_other_batch_size(trained_run, tiny_dataset, tmp_path,
                                               capsys):
    out = str(tmp_path / "resumed")
    flags = [f if f != "8" else "4" for f in TRAIN_FLAGS]
    assert flags != TRAIN_FLAGS
    capsys.readouterr()
    assert resume(trained_run, tiny_dataset, out, *flags) == 3
    assert "batch size 8, not 4" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "checkpoint.cvac"))


def test_train_resume_refuses_another_model_form(trained_run, tiny_dataset, tmp_path,
                                                 capsys):
    # the checkpoint was trained with the question inside the region tanh
    out = str(tmp_path / "resumed")
    capsys.readouterr()
    assert resume(trained_run, tiny_dataset, out, *TRAIN_FLAGS, "--literal-spatial") == 3
    assert "tanh_after_sum=True" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "checkpoint.cvac"))


def test_train_resume_without_manifest_works(trained_run, tiny_dataset, tmp_path,
                                            capsys):
    expected = str(tmp_path / "expected")
    assert resume(trained_run, tiny_dataset, expected) == 0
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(trained_run, "checkpoint.cvac"), str(bare))
    resumed = str(tmp_path / "resumed")
    assert resume(str(bare), tiny_dataset, resumed) == 0
    assert (open(os.path.join(resumed, "checkpoint.cvac"), "rb").read()
            == open(os.path.join(expected, "checkpoint.cvac"), "rb").read())
    assert run(["eval", "--checkpoint", str(bare / "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", str(bare / "r.csv")]) == 0


def test_train_resume_refuses_embeddings_before_loading(trained_run, tiny_dataset,
                                                       tmp_path, capsys):
    # the restore would overwrite every embedding row the file seeded
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text("what" + " 0.5" * 16 + "\n")
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert resume(trained_run, tiny_dataset, str(out), *TRAIN_FLAGS,
                  "--embeddings", str(embeddings)) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err and "--embeddings" in captured.err
    assert "loaded" not in captured.out and not out.exists()


@pytest.mark.parametrize("field,value", [
    ("feat_dim", 8.5), ("hidden_dim", True), ("max_question_len", "26"), ("variant", 5),
    ("channel_gain_strength", "x"), ("tanh_after_sum", "no"),
    ("rescale_channel_gains", 1), ("channel_gain_strength", float("nan")),
    ("channel_gain_strength", float("inf")),
])
def test_eval_wrongly_typed_model_field_is_format_error(trained_run, tiny_dataset,
                                                        tmp_path, capsys, field, value):
    _, header = split_header(os.path.join(trained_run, "checkpoint.cvac"))
    header["model"][field] = value
    checkpoint = with_header(trained_run, tmp_path / "typed", header)
    assert run(["eval", "--checkpoint", checkpoint, "--data", tiny_dataset,
                "--csv", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "format error" in err and field in err


def test_eval_restores_every_value_whatever_the_manifest_seed(trained_run, tiny_dataset,
                                                              tmp_path, capsys):
    csv_path = str(tmp_path / "r.csv")
    assert run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", csv_path]) == 0
    expected = capsys.readouterr().out, open(csv_path).read()
    run_dir = tmp_path / "seeded"
    shutil.copytree(trained_run, str(run_dir))
    manifest = json.load(open(run_dir / "manifest.json"))
    (run_dir / "manifest.json").write_text(json.dumps(dict(manifest, seed="x")))
    assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", csv_path]) == 0
    assert (capsys.readouterr().out, open(csv_path).read()) == expected
    # another run's manifest (another variant, model form and batch size) is
    # not read either: eval and --resume load the model the header describes
    other = str(tmp_path / "other")
    assert run(["train", "--variant", "ra", "--data", tiny_dataset, "--out", other,
                "--literal-spatial", "--batch-size", "4", "--epochs", "1"]) == 0
    shutil.copy(os.path.join(other, "manifest.json"), str(run_dir))
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.cvac"),
                "--data", tiny_dataset, "--csv", csv_path]) == 0
    assert (capsys.readouterr().out, open(csv_path).read()) == expected
    assert resume(str(run_dir), tiny_dataset, str(tmp_path / "resumed")) == 0


def test_eval_missing_checkpoint_is_io_error(tiny_dataset, capsys):
    assert run(["eval", "--checkpoint", "/nonexistent/x.cvac",
                "--data", tiny_dataset]) == 2


@pytest.mark.parametrize("name", ["config", "taxonomy", "examples", "question_vocab",
                                  "answer_vocab", "embeddings"])
def test_non_utf8_text_input_is_format_error_naming_the_file(trained_run, tiny_dataset,
                                                             tmp_path, capsys, name):
    data_dir = str(tmp_path / "data")
    shutil.copytree(tiny_dataset, data_dir)
    eval_argv = ["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.cvac"),
                 "--data", data_dir, "--csv", str(tmp_path / "r.csv")]
    train_argv = ["train", "--variant", "cva", "--data", data_dir,
                  "--out", str(tmp_path / "run")] + TRAIN_FLAGS
    path, text, argv = {
        "config": (str(tmp_path / "run.cfg"), "epochs = 1\n", train_argv + ["--config"]),
        "taxonomy": (str(tmp_path / "tax.txt"), "a\tb\n", eval_argv + ["--taxonomy"]),
        "examples": (os.path.join(data_dir, "test.txt"), None, eval_argv),
        "question_vocab": (os.path.join(data_dir, "question_vocab.txt"), None, eval_argv),
        "answer_vocab": (os.path.join(data_dir, "answer_vocab.txt"), None, eval_argv),
        "embeddings": (str(tmp_path / "emb.txt"), "what" + " 0.5" * 16 + "\n",
                       train_argv + ["--embeddings"]),
    }[name]
    if text is not None:
        open(path, "w").write(text)
        argv = argv + [path]
    # valid text first, so the bad byte is met part way through the read
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "format error" in err and path in err and "not UTF-8" in err


# ---------------------------------------------------------------------------
# fuzzed parsers: each input parses, or raises its documented error, and the
# command that reads it exits with that error's code


def exits_as_documented(call, codes):
    """``call()`` returns or raises one of the error classes ``codes`` maps to
    exit codes, and a command that does ``call()`` exits with 0 or that code."""
    try:
        call()
        expected = 0
    except tuple(codes) as err:
        expected = next(code for cls, code in codes.items() if isinstance(err, cls))

    def command(args):
        call()
        return 0

    with mock.patch.object(cli, "cmd_gradcheck", command):
        assert cli.main(["gradcheck"]) == expected


FUZZ_MODEL = ModelConfig(variant="cva", vocab_size=5, num_answers=3, feat_dim=4,
                         embed_dim=2, hidden_dim=2, attn_dim=2, fuse_dim=2)
FUZZ_HEADER = {"model": FUZZ_MODEL.to_dict(), "batch_size": 8,
               "vocab_sha256": {"question": "0" * 64, "answer": "f" * 64}}
FUZZ_HEADER_BYTES = len(json.dumps(FUZZ_HEADER, sort_keys=True).encode("utf-8"))


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "c.cvac")
    training.save_checkpoint(VqaModel(FUZZ_MODEL).store, path, FUZZ_HEADER)
    assert cli._load_checkpoint(path)[0].config == FUZZ_MODEL
    return open(path, "rb").read()


def test_checkpoint_cut_at_every_offset_exits_two(fuzz_checkpoint, tmp_path, capsys):
    path = str(tmp_path / "cut.cvac")
    for cut in range(len(fuzz_checkpoint)):
        open(path, "wb").write(fuzz_checkpoint[:cut])
        with pytest.raises(training.CheckpointFormatError):
            cli._load_checkpoint(path)
    # through the command, for every cut of the step counter, header and checksum
    for cut in range(len(fuzz_checkpoint) - FUZZ_HEADER_BYTES - 16, len(fuzz_checkpoint)):
        open(path, "wb").write(fuzz_checkpoint[:cut])
        exits_as_documented(lambda: cli._load_checkpoint(path), {training.FormatError: 2})


# the step counter, the header's byte count, the header and the checksum: the
# last bytes of the file. Every flip is a format error; none parses cleanly
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flips=st.lists(st.tuples(st.integers(-FUZZ_HEADER_BYTES - 16, -1),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_flipped_checkpoint_header_bytes_exit_as_documented(fuzz_checkpoint,
                                                            tmp_path_factory, flips):
    blob = bytearray(fuzz_checkpoint)
    for position, mask in flips:
        blob[position] ^= mask
    path = str(tmp_path_factory.mktemp("flip") / "c.cvac")
    open(path, "wb").write(bytes(blob))
    # two flips of one byte may cancel out and give back the saved file
    expected = 0 if blob == fuzz_checkpoint else 2

    def command(args):
        cli._load_checkpoint(path)
        return 0

    with mock.patch.object(cli, "cmd_gradcheck", command):
        assert cli.main(["gradcheck"]) == expected


def lines_of(text_lines):
    """Lines drawn seven times in eight from ``text_lines``, else raw bytes."""
    return st.tuples(st.integers(0, 7), text_lines, st.binary(max_size=12)).map(
        lambda drawn: drawn[2] if drawn[0] == 0 else drawn[1].encode("utf-8"))


CONFIG_LINES = lines_of(st.builds(
    "{} = {}".format,
    st.sampled_from([f.name for f in dataclasses.fields(training.TrainConfig)]
                    + ["bogus", ""]),
    st.one_of(st.sampled_from(["0", "1", "-1", "0.5", "16", "1e999", "nan", "desk",
                               "full", "1.5"]), st.text(max_size=8))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(CONFIG_LINES, max_size=6))
def test_fuzzed_config_file_exits_as_documented(tmp_path_factory, lines):
    path = str(tmp_path_factory.mktemp("config") / "run.cfg")
    open(path, "wb").write(b"\n".join(lines))
    exits_as_documented(lambda: training.parse_config_file(path),
                        {training.FormatError: 2, InvalidArgumentError: 3})


TAXONOMY_LINES = lines_of(st.builds(
    "{}\t{}".format, *[st.sampled_from(["root", "a", "b", "c", " B ", ""])] * 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(TAXONOMY_LINES, max_size=8))
def test_fuzzed_taxonomy_exits_as_documented(tmp_path_factory, lines):
    path = str(tmp_path_factory.mktemp("taxonomy") / "tax.txt")
    open(path, "wb").write(b"\n".join(lines))
    exits_as_documented(lambda: Taxonomy.load(path),
                        {training.FormatError: 2, TaxonomyError: 3})


# ---------------------------------------------------------------------------
# ablate


def test_ablate_table_shape(tiny_dataset, tmp_path, capsys):
    out = str(tmp_path / "ablate")
    code = run(["ablate", "--data", tiny_dataset, "--out", out, "--seeds", "1",
                "--lr", "0.01", "--batch-size", "8", "--epochs", "1",
                "--dropout", "0", "--seed", "0"])
    assert code == 0
    table = open(os.path.join(out, "table.txt")).read().splitlines()
    assert len(table) == 5
    assert [row.split()[0] for row in table[1:]] == ["CA", "RA", "CVA", "R-CVA"]
    csv = open(os.path.join(out, "table.csv")).read().splitlines()
    assert csv[0] == "variant,dataset,mean,stdev,seeds"
    assert len(csv) == 5
    # stdev column reads 0 for a single seed
    assert all(row.split(",")[3] == "0.000000" for row in csv[1:])


def test_ablation_table_of_a_variant_subset():
    # run_ablation(..., variants=subset) returns only the subset's results
    text, csv = cli.ablation_table({"ca": {"d": [0.5, 0.7]}, "cva": {"d": [1.0]}}, ["d"])
    assert [row.split()[0] for row in text.splitlines()[1:]] == ["CA", "CVA"]
    assert csv.splitlines()[1:] == ["CA,d,0.600000,0.100000,2",
                                    "CVA,d,1.000000,0.000000,1"]


def test_ablate_refuses_two_datasets_with_one_basename(tiny_dataset, tmp_path, capsys):
    # the table names each dataset column by its directory's basename
    twin = str(tmp_path / "twin" / os.path.basename(tiny_dataset))
    shutil.copytree(tiny_dataset, twin)
    out = str(tmp_path / "ablate")
    capsys.readouterr()
    assert run(["ablate", "--data", tiny_dataset, "--data", twin, "--out", out,
                "--seeds", "1", "--epochs", "1"]) == 1
    assert repr(os.path.basename(tiny_dataset)) in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "table.txt"))


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_single_variant_passes(capsys):
    assert run(["gradcheck", "--variant", "cva", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "chan" in out and "spat" in out and "enc" in out and "clf" in out


def test_gradcheck_literal_spatial_form(capsys):
    assert run(["gradcheck", "--variant", "ra", "--seed", "1",
                "--literal-spatial"]) == 0


def test_gradcheck_repeatable(capsys):
    assert run(["gradcheck", "--variant", "ca", "--seed", "2"]) == 0
    first = capsys.readouterr().out
    assert run(["gradcheck", "--variant", "ca", "--seed", "2"]) == 0
    assert capsys.readouterr().out == first


def test_gradcheck_pool_forks_after_a_multi_tile_channel_scorer_call(monkeypatch, capsys):
    # the cores' threads end within each call: a process pool forked later
    # inherits no worker of the parent's
    monkeypatch.setattr(T, "USABLE_CORES", 2)
    rng = np.random.default_rng(0)
    vis, query = rng.standard_normal((3, 300)), rng.standard_normal((3, 1024))
    assert len(T._score_tiles(3, 300, 1024)) > 1
    T.channel_scores(None, T.Tensor(vis), T.Tensor(query), T.Tensor(np.ones(1024)))
    assert run(["gradcheck", "--variant", "ca", "--seeds", "2", "--seed", "0"]) == 0
    assert "OK" in capsys.readouterr().out


def test_gradcheck_runs_serially_where_a_pool_cannot_start(monkeypatch, capsys):
    # without named semaphores ProcessPoolExecutor() raises NotImplementedError
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise NotImplementedError("no sem_open")

    argv = ["gradcheck", "--variant", "ca", "--seeds", "2"]
    monkeypatch.setattr(T, "USABLE_CORES", 1)
    assert run(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(T, "USABLE_CORES", 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run(argv) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_gradcheck_stage_probes_match_full_reevaluation(variant, literal):
    # probing each parameter from its first stage returns the bits of
    # probing it with the whole forward
    staged = cli.gradcheck_model(variant, 3, literal_spatial=literal)
    vqa_model, batch = cli.gradcheck_instance(variant, 3, literal_spatial=literal)
    tape = T.Tape()
    loss, _ = vqa_model.batch_loss(tape, batch)
    tape.backward(loss)
    grads = {name: vqa_model.store[name].grad for name in vqa_model.store.names()}
    full = T.finite_difference_check(
        lambda: float(vqa_model.batch_loss(None, batch)[0].value),
        vqa_model.store.values(), grads)
    assert staged == full
    assert list(staged[1]) == vqa_model.store.names()
    # the stages partition the parameters, each named once, in store order
    probes = vqa_model.stage_probes(batch)
    assert [name for names, _ in probes for name in names] == vqa_model.store.names()


def test_stage_probes_refuse_a_parameter_of_no_stage(monkeypatch):
    # a parameter no stage reads first cannot be probed: the model refuses
    # it when it is built, before any probe exists
    initial_values = VqaModel._initial_values

    def with_extra(self, seed):
        return dict(initial_values(self, seed), **{"extra.w": np.zeros(2)})

    monkeypatch.setattr(VqaModel, "_initial_values", with_extra)
    with pytest.raises(T.InvalidArgumentError, match="extra.w"):
        cli.gradcheck_instance("ra", 0)


def test_gradcheck_detects_corrupted_backward(capsys, monkeypatch):
    # negative control: break one backward rule and expect a nonzero exit
    real_tanh = T.tanh

    def bad_tanh(tape, x):
        value = np.tanh(x.value)

        def backward(g):
            T._accum(x, 0.5 * (1.0 - value * value) * g)

        return T._make(tape, value, backward)

    monkeypatch.setattr(T, "tanh", bad_tanh)
    import cubevqa.encoder
    import cubevqa.attention
    import cubevqa.classifier
    monkeypatch.setattr(cubevqa.encoder.T, "tanh", bad_tanh)
    code = run(["gradcheck", "--variant", "ca", "--seed", "0"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().err