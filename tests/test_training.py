"""Adam, clipping, dropout, the epoch loop, and checkpoint persistence."""

import json
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa.tensor as T
import cubevqa.training as TR
from cubevqa import data
from cubevqa.model import ModelConfig, VqaModel
from cubevqa.tensor import InvalidArgumentError, ShapeError
from cubevqa.training import (CheckpointFormatError, ParameterStore, TrainConfig,
                              adam_step, clip_gradients, dropout_mask,
                              load_checkpoint, parse_config_file,
                              restore_checkpoint, save_checkpoint, substream)


def small_store(seed=0):
    rng = np.random.default_rng(seed)
    return ParameterStore({"a": rng.standard_normal((3, 2)),
                           "b": rng.standard_normal(4),
                           "c": rng.standard_normal(())})


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_noop_on_values():
    store = small_store()
    before = {n: store[n].value.copy() for n in store.names()}
    adam_step(store, TrainConfig())
    assert store.step == 1
    for n in store.names():
        npt.assert_array_equal(store[n].value, before[n])


def test_adam_first_step_approximates_signed_update():
    store = ParameterStore({"w": np.array([1.0, -2.0, 3.0])})
    store["w"].grad[...] = np.array([0.5, -0.25, 4.0])
    config = TrainConfig(learning_rate=1e-3)
    expected = np.array([1.0, -2.0, 3.0]) - 1e-3 * np.sign([0.5, -0.25, 4.0])
    adam_step(store, config)
    npt.assert_allclose(store["w"].value, expected, atol=1e-6)
    npt.assert_array_equal(store["w"].grad, np.zeros(3))


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    store = small_store()
    store["b"].grad[1] = np.nan
    with pytest.raises(InvalidArgumentError) as err:
        adam_step(store, TrainConfig())
    assert "'b'" in str(err.value)


def test_adam_deterministic_across_runs():
    def run():
        store = small_store(seed=3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            for n in store.names():
                store[n].grad[...] = rng.standard_normal(store[n].value.shape)
            adam_step(store, TrainConfig(learning_rate=0.01))
        return {n: store[n].value.copy() for n in store.names()}

    one, two = run(), run()
    for n in one:
        npt.assert_array_equal(one[n], two[n])


def test_adam_matches_per_array_form_across_chunks():
    # an arena longer than one optimizer chunk, against the textbook update
    rng = np.random.default_rng(11)
    shapes = {"big": (TR._ADAM_CHUNK + 5,), "small": (3, 2)}
    store = ParameterStore({n: rng.standard_normal(s) for n, s in shapes.items()})
    ref = {n: [store[n].value.copy(), np.zeros(s), np.zeros(s)] for n, s in shapes.items()}
    config = TrainConfig(learning_rate=0.01)
    b1, b2 = config.beta1, config.beta2
    for t in range(1, 4):
        for n, s in shapes.items():
            grad = rng.standard_normal(s)
            store[n].grad[...] = grad
            value, m, v = ref[n]
            m[...] = b1 * m + (1.0 - b1) * grad
            v[...] = b2 * v + (1.0 - b2) * (grad * grad)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            value[...] = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
        adam_step(store, config)
    for n in shapes:
        npt.assert_array_equal(store[n].value, ref[n][0])
        npt.assert_array_equal(store[n].grad, 0.0)
    # the moments are two arena vectors, laid out in store order
    for flat, k in ((store.flat_m, 1), (store.flat_v, 2)):
        npt.assert_array_equal(flat, np.concatenate([ref[n][k].ravel() for n in shapes]))


def test_adam_is_bit_identical_at_any_core_count(monkeypatch):
    size = 3 * TR._ADAM_CHUNK + 5
    results = []
    # threads switching every microsecond: a scratch row shared between runs
    # would be overwritten mid-chunk
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(T, "USABLE_CORES", cores)
            rng = np.random.default_rng(13)
            store = ParameterStore({"w": rng.standard_normal(size)})
            assert store.adam_scratch.shape == (cores, TR._ADAM_CHUNK)
            for _ in range(10):
                store.flat_grad[...] = rng.standard_normal(size)
                adam_step(store, TrainConfig(learning_rate=0.01))
            results.append((store.flat_value, store.flat_m, store.flat_v))
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            npt.assert_array_equal(a, b)


def test_adam_scratch_has_one_row_per_run(monkeypatch):
    monkeypatch.setattr(T, "USABLE_CORES", 4)
    # a one-chunk (desk-scale) arena keeps one row, however many cores
    assert small_store().adam_scratch.shape == (1, 11)
    two_chunks = ParameterStore({"w": np.zeros(TR._ADAM_CHUNK + 1)})
    assert two_chunks.adam_scratch.shape == (2, TR._ADAM_CHUNK)


# ---------------------------------------------------------------------------
# clipping


def test_clip_below_threshold_untouched():
    store = small_store()
    store["a"].grad[...] = 0.01
    store["b"].grad[...] = 0.0
    store["c"].grad[...] = 0.0
    before = store["a"].grad.copy()
    norm = clip_gradients(store, max_norm=10.0)
    npt.assert_array_equal(store["a"].grad, before)
    assert norm < 10.0


def test_clip_hand_case():
    store = ParameterStore({"w": np.zeros(2)})
    store["w"].grad[...] = np.array([3.0, 4.0])
    norm = clip_gradients(store, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    npt.assert_allclose(store["w"].grad, [1.5, 2.0], atol=1e-12)


def test_clip_never_exceeds_max_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        store = small_store(seed=5)
        for n in store.names():
            store[n].grad[...] = rng.standard_normal(store[n].value.shape) * 100
        clip_gradients(store, max_norm=1.0)
        assert store.grad_norm() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_and_eval_identity():
    # evaluation passes no mask at all (``VqaModel.predict_batch``); at rate
    # zero the training mask is all ones and draws nothing
    rng = np.random.default_rng(6)
    x = rng.standard_normal(50)
    state = rng.bit_generator.state
    npt.assert_array_equal(x * dropout_mask(x.shape, 0.0, rng), x)
    assert rng.bit_generator.state == state


def test_dropout_rejects_rate_one():
    with pytest.raises(InvalidArgumentError):
        dropout_mask((3,), 1.0, np.random.default_rng(0))


def test_dropout_monte_carlo_mean_preserved():
    rng = np.random.default_rng(7)
    x = np.array([1.0, -2.0, 0.5])
    total = np.zeros(3)
    n = 100_000
    for _ in range(n):
        total += x * dropout_mask(x.shape, 0.5, rng)
    npt.assert_allclose(total / n, x, rtol=0.02)


# ---------------------------------------------------------------------------
# configuration


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 0.01\nbatch_size = 16\n# comment\n"
                    "dropout = 0.25\nprofile = desk\n")
    config = parse_config_file(str(path))
    assert config.learning_rate == 0.01
    assert config.batch_size == 16
    assert config.dropout == 0.25


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("momentum = 0.9\n")
    with pytest.raises(InvalidArgumentError):
        parse_config_file(str(path))


def test_non_numeric_config_value_names_key_and_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = fast\n")
    with pytest.raises(InvalidArgumentError) as err:
        parse_config_file(str(path))
    assert "'learning_rate'" in str(err.value) and "'fast'" in str(err.value)
    with pytest.raises(InvalidArgumentError) as err:
        TR.apply_overrides(TrainConfig(), {"epochs": "1.5"})
    assert "'epochs'" in str(err.value) and "'1.5'" in str(err.value)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(InvalidArgumentError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(InvalidArgumentError):
        TrainConfig(profile="gpu").validate()
    # NaN fails every comparison, so it would slip past the range checks
    for field, value in (("learning_rate", float("nan")), ("learning_rate", float("inf")),
                         ("eps", float("nan")), ("eps", float("inf")),
                         ("clip_norm", float("nan")), ("clip_norm", float("inf"))):
        with pytest.raises(InvalidArgumentError) as err:
            TrainConfig(**{field: value}).validate()
        assert field in str(err.value)


def test_substream_independence_and_determinism():
    a = substream(7, "shuffle", 0).permutation(50)
    b = substream(7, "shuffle", 0).permutation(50)
    c = substream(7, "shuffle", 1).permutation(50)
    d = substream(7, "dropout", 0).permutation(50)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_takes_the_whole_seed():
    draws = {seed: substream(seed, "init", "clf.w_out").random(4).tolist()
             for seed in (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64)}
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    with pytest.raises(InvalidArgumentError, match="got -1"):
        substream(-1, "init")


# two desk-profile training steps with 2000 answers: at this shape, some
# products differ in their last bits between one and two BLAS threads
_TWO_STEPS = """
import hashlib
import numpy as np
from cubevqa import training
from cubevqa.model import Batch, ModelConfig, VqaModel
rng = np.random.default_rng(0)
batch = Batch(features=rng.random((16, 6, 32)), token_ids=rng.integers(1, 50, (16, 8)),
              lengths=np.full(16, 8), labels=rng.integers(0, 2000, 16))
config = training.TrainConfig(batch_size=16, profile="desk")
model = VqaModel(ModelConfig.from_profile("desk", variant="cva", vocab_size=50,
                                          num_answers=2000, feat_dim=32), seed=0)
for step in range(2):
    model.train_step_forward_backward([batch], dropout_rate=0.5,
                                      dropout_rng=training.substream(0, "dropout", step))
    norm = training.clip_gradients(model.store, config.clip_norm)
    training.adam_step(model.store, config, grad_norm=norm)
store = model.store
print(hashlib.sha256(b"".join(a.tobytes() for a in (store.flat_value, store.flat_m,
                                                     store.flat_v))).hexdigest())
"""


def _child(script, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


@pytest.mark.skipif(T._BLAS is None, reason="numpy's bundled OpenBLAS is not reachable")
def test_training_bits_do_not_depend_on_the_blas_thread_count():
    digests = [_child(_TWO_STEPS, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert digests[0] == digests[1]


@pytest.mark.skipif(T._BLAS is None, reason="numpy's bundled OpenBLAS is not reachable")
def test_import_pins_blas_to_one_thread_in_pool_children_too():
    script = """
import concurrent.futures
import cubevqa

def threads():
    return cubevqa.tensor._BLAS[1]()

with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
    print(threads(), pool.submit(threads).result())
"""
    assert _child(script, OPENBLAS_NUM_THREADS="2") == ["1", "1"]


# ---------------------------------------------------------------------------
# epoch loop on a tiny dataset


def toy_setup(task="spatial", size=40, seed=0):
    bundle = data.generate_toy_dataset(task, size, 4, 16, seed)
    prepared = data.prepare_dataset(bundle.container, bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    config = ModelConfig.from_profile(
        "desk", variant="cva", vocab_size=len(bundle.question_vocab),
        num_answers=len(bundle.answer_vocab), feat_dim=16,
        embed_dim=8, hidden_dim=16, attn_dim=16, fuse_dim=16)
    return prepared, config


def test_zero_learning_rate_keeps_parameters():
    prepared, model_config = toy_setup()
    model = VqaModel(model_config, seed=0)
    before = {n: model.store[n].value.copy() for n in model.store.names()}
    loss, acc = TR.train_epoch(model, prepared,
                               TrainConfig(learning_rate=0.0, batch_size=8,
                                           dropout=0.0, seed=0), epoch=0)
    assert loss > 0
    for n in model.store.names():
        npt.assert_array_equal(model.store[n].value, before[n])


def test_single_example_overfits():
    # 500 steps on one repeated example drive the loss to ~0
    bundle = data.generate_toy_dataset("spatial", 1, 4, 16, seed=1)
    prepared = data.prepare_dataset(bundle.container, bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    model_config = ModelConfig.from_profile(
        "desk", variant="cva", vocab_size=len(bundle.question_vocab),
        num_answers=len(bundle.answer_vocab), feat_dim=16,
        embed_dim=8, hidden_dim=16, attn_dim=16, fuse_dim=16)
    model = VqaModel(model_config, seed=1)
    config = TrainConfig(learning_rate=1e-3, batch_size=1, dropout=0.0, seed=1)
    loss = None
    for epoch in range(500):
        loss, _ = TR.train_epoch(model, prepared, config, epoch)
    assert loss < 0.01


def test_same_seed_identical_loss_curve():
    prepared, model_config = toy_setup(size=60)
    curves = []
    for _ in range(2):
        model = VqaModel(model_config, seed=2)
        config = TrainConfig(learning_rate=0.01, batch_size=16, dropout=0.3, seed=2)
        curves.append([TR.train_epoch(model, prepared, config, e) for e in range(3)])
    assert curves[0] == curves[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_epoch_refuses_a_non_finite_gradient_naming_its_parameter(monkeypatch, bad):
    # the loss stays finite and one gradient entry does not: clip_gradients
    # returns a non-finite norm, so adam_step scans and names the parameter
    prepared, model_config = toy_setup()
    model = VqaModel(model_config, seed=0)
    step = model.train_step_forward_backward

    def poisoned(*args, **kwargs):
        result = step(*args, **kwargs)
        model.store["spat.w_score"].grad[1] = bad
        return result

    monkeypatch.setattr(model, "train_step_forward_backward", poisoned)
    # clipping leaves a non-finite norm's gradients alone, so no numpy
    # warning (an infinite entry scaled by max_norm / inf is inf * 0) comes first
    with pytest.raises(InvalidArgumentError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        TR.train_epoch(model, prepared, TrainConfig(batch_size=8, dropout=0.0), epoch=0)
    assert "'spat.w_score'" in str(err.value)
    assert model.store.step == 0


def test_training_step_at_a_multi_tile_shape_leaves_no_thread_running(monkeypatch):
    bundle = data.generate_toy_dataset("mixed", 8, 4, 1024, seed=0)
    prepared = data.prepare_dataset(bundle.container, bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    model_config = ModelConfig.from_profile(
        "desk", variant="cva", vocab_size=len(bundle.question_vocab),
        num_answers=len(bundle.answer_vocab), feat_dim=1024)
    assert len(T._score_tiles(8, 1024, model_config.attn_dim)) > 1
    monkeypatch.setattr(T, "USABLE_CORES", 2)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(T.threading, "Thread", Recorded)
    threads = threading.active_count()
    model = VqaModel(model_config, seed=0)
    TR.train_epoch(model, prepared, TrainConfig(batch_size=8, dropout=0.0), epoch=0)
    assert started and not any(t.is_alive() for t in started)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    prepared, model_config = toy_setup(size=30)
    model = VqaModel(model_config, seed=3)
    config = TrainConfig(learning_rate=0.01, batch_size=8, dropout=0.0, seed=3)
    TR.train_epoch(model, prepared, config, 0)
    p1 = str(tmp_path / "one.cvac")
    p2 = str(tmp_path / "two.cvac")
    save_checkpoint(model.store, p1)
    fresh = VqaModel(model_config, seed=99)
    restore_checkpoint(fresh.store, load_checkpoint(p1))
    save_checkpoint(fresh.store, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert fresh.store.step == model.store.step
    npt.assert_array_equal(fresh.store.flat_value, model.store.flat_value)
    npt.assert_array_equal(fresh.store.flat_m, model.store.flat_m)
    npt.assert_array_equal(fresh.store.flat_v, model.store.flat_v)


def test_checkpoint_payloads_are_one_read_and_a_short_read_is_refused(tmp_path,
                                                                       monkeypatch):
    store = small_store()
    path = str(tmp_path / "c.cvac")
    save_checkpoint(store, path)
    runs, preadv = [], os.preadv

    def recording_preadv(fd, buffers, offset):
        runs.append(sum(memoryview(b).nbytes for b in buffers))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", recording_preadv)
    checkpoint = load_checkpoint(path)
    # every payload is kept: one read from the first value to the end of the
    # second moments, before the step counter, header and checksum
    first = 12 + 2 + len(store.names()[0]) + 1 + 4 * store[store.names()[0]].value.ndim
    tail = 8 + 4 + len(json.dumps({}).encode()) + 4
    assert runs == [os.path.getsize(path) - first - tail]
    assert not any(a.flags.writeable for a in [*checkpoint.values, *checkpoint.moments])

    def short(fd, buffers, offset):
        return preadv(fd, [memoryview(buffers[0])[:-8]], offset)

    monkeypatch.setattr(os, "preadv", short)
    with pytest.raises(CheckpointFormatError, match=f"{re.escape(path)}: short read of"):
        load_checkpoint(path)


def test_checkpoint_in_another_name_order_is_refused(tmp_path):
    # the order in which the store registered the encoder gate by gate (w, u,
    # b of the update gate, then of reset, then of cand): the same names and
    # shapes, but not the store's layout, so not restored by name
    model = VqaModel(ModelConfig(variant="cva", vocab_size=7, num_answers=5,
                                 feat_dim=6), seed=5)
    gates = [f"enc.{kind}_{gate}" for gate in ("update", "reset", "cand")
             for kind in ("w", "u", "b")]
    names = ["enc.embed"] + gates + model.store.names()[10:]
    assert sorted(names) == sorted(model.store.names()) and names != model.store.names()
    store = ParameterStore({n: model.store[n].value for n in names})
    path = str(tmp_path / "interleaved.cvac")
    save_checkpoint(store, path)
    before = model.store.flat_value.copy()
    with pytest.raises(ShapeError, match="at position 2 the model has parameter "
                                         "'enc.w_reset'.*the file parameter 'enc.u_update'"):
        restore_checkpoint(model.store, load_checkpoint(path))
    npt.assert_array_equal(model.store.flat_value, before)


def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path, monkeypatch):
    store = small_store()
    store.step = 7
    path = str(tmp_path / "c.cvac")
    save_checkpoint(store, path)
    before, old_a = open(path, "rb").read(), store["a"].value.copy()
    store.step = 9
    store.flat_value += 1.0
    real_write_entry, calls = TR._write_entry, []

    def failing_write_entry(fh, name, array):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("disk full")
        real_write_entry(fh, name, array)

    monkeypatch.setattr(TR, "_write_entry", failing_write_entry)
    with pytest.raises(OSError):
        save_checkpoint(store, path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c.cvac"]
    checkpoint = load_checkpoint(path)
    assert checkpoint.step == 7 and checkpoint.layout[0][0] == "a"
    npt.assert_array_equal(checkpoint.values[0], old_a)


def test_atomic_writer_fsyncs_file_before_rename_and_directory_after(tmp_path,
                                                                     monkeypatch):
    path = str(tmp_path / "c.cvac")
    save_checkpoint(small_store(), path)
    before = open(path, "rb").read()
    events = []
    real_replace = os.replace

    def record_fsync(fd):
        mode = os.fstat(fd).st_mode
        events.append("fsync dir" if stat.S_ISDIR(mode) else "fsync file")

    def record_replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    store = small_store(seed=1)
    save_checkpoint(store, path)
    assert events == ["fsync file", "replace", "fsync dir"]
    npt.assert_array_equal(load_checkpoint(path).values[0], store["a"].value)

    # a write whose fsync fails leaves the previous file and no temporary
    save_checkpoint(small_store(), path)

    def failing_fsync(fd):
        raise OSError("I/O error")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        save_checkpoint(small_store(seed=2), path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c.cvac"]


def test_checkpoint_mismatched_architecture_names_parameter(tmp_path):
    prepared, model_config = toy_setup(size=30)
    model = VqaModel(model_config, seed=4)
    path = str(tmp_path / "m.cvac")
    save_checkpoint(model.store, path)
    import dataclasses
    other_config = dataclasses.replace(model_config, attn_dim=8)
    other = VqaModel(other_config, seed=4)
    with pytest.raises(ShapeError) as err:
        restore_checkpoint(other.store, load_checkpoint(path))
    assert "chan." in str(err.value) or "spat." in str(err.value)
    ra_config = dataclasses.replace(model_config, variant="ra")
    ra_model = VqaModel(ra_config, seed=4)
    with pytest.raises(ShapeError):
        restore_checkpoint(ra_model.store, load_checkpoint(path))


def test_checkpoint_truncation_reports_offset(tmp_path):
    store = small_store()
    path = str(tmp_path / "t.cvac")
    save_checkpoint(store, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "byte" in str(err.value)


def test_checkpoint_cut_at_every_offset_names_the_offset(tmp_path):
    store = small_store()
    path = str(tmp_path / "cut.cvac")
    save_checkpoint(store, path)
    blob = open(path, "rb").read()
    for cut in range(len(blob)):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        offset = re.search(r"at byte (\d+)", str(err.value))
        assert offset and int(offset.group(1)) <= cut, (cut, str(err.value))


def test_checkpoint_non_utf8_name_is_format_error(tmp_path):
    store = small_store()
    path = str(tmp_path / "n.cvac")
    save_checkpoint(store, path)
    blob = bytearray(open(path, "rb").read())
    # magic, version and entry count take 12 bytes, the first name length 2
    assert blob[14:15] == b"a"
    blob[14] = 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "UTF-8" in str(err.value) and "byte 14" in str(err.value)


def test_checkpoint_moments_are_two_unnamed_blocks_in_store_order(tmp_path):
    store = small_store()
    rng = np.random.default_rng(4)
    store.flat_m[...] = rng.standard_normal(store.flat_m.size)
    store.flat_v[...] = rng.random(store.flat_v.size)
    path = str(tmp_path / "s.cvac")
    save_checkpoint(store, path)
    blob = open(path, "rb").read()
    # the 12-byte prefix and the value entries a (60 bytes), b (40) and c (12),
    # then m and v with no names or shapes, then the step counter
    blocks = store.flat_m.astype("<f8").tobytes() + store.flat_v.astype("<f8").tobytes()
    assert blob[124:124 + len(blocks)] == blocks
    assert blob[124 + len(blocks):132 + len(blocks)] == struct.pack("<Q", store.step)
    m, v = load_checkpoint(path).moments
    assert m.tobytes() == store.flat_m.tobytes() and v.tobytes() == store.flat_v.tobytes()


def test_checkpoint_oversized_dims_are_format_error(tmp_path):
    # three dims whose product overflows 64 bits must still read as truncated
    store = ParameterStore({"a": np.ones((1, 1, 1))})
    path = str(tmp_path / "o.cvac")
    save_checkpoint(store, path)
    blob = bytearray(open(path, "rb").read())
    # magic, version, count, name length, name "a" and rank: dims start at 16
    blob[16:28] = struct.pack("<III", 1 << 31, 1 << 31, 4)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "truncated" in str(err.value)


def test_checkpoint_bad_magic_and_version(tmp_path):
    store = small_store()
    path = str(tmp_path / "v.cvac")
    save_checkpoint(store, path)
    blob = bytearray(open(path, "rb").read())
    blob[0:4] = b"NOPE"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    blob[0:4] = b"CVAC"
    blob[4] = 99
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "version" in str(err.value)


def test_resume_matches_uninterrupted_run():
    prepared, model_config = toy_setup(size=48)
    config = TrainConfig(learning_rate=0.01, batch_size=8, dropout=0.2, seed=5)

    full = VqaModel(model_config, seed=5)
    for epoch in range(6):
        TR.train_epoch(full, prepared, config, epoch)

    half = VqaModel(model_config, seed=5)
    for epoch in range(3):
        TR.train_epoch(half, prepared, config, epoch)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "half.cvac")
        save_checkpoint(half.store, path)
        resumed = VqaModel(model_config, seed=5)
        restore_checkpoint(resumed.store, load_checkpoint(path))
    for epoch in range(3, 6):
        TR.train_epoch(resumed, prepared, config, epoch)

    assert resumed.store.step == full.store.step
    npt.assert_array_equal(resumed.store.flat_value, full.store.flat_value)
    npt.assert_array_equal(resumed.store.flat_m, full.store.flat_m)
    npt.assert_array_equal(resumed.store.flat_v, full.store.flat_v)
