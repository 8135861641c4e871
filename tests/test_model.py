"""Model assembly: variants, initialization sharing, batched equivalence."""

import ast
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa
import cubevqa.tensor as T
from cubevqa import training
from cubevqa.model import (Batch, DIMENSION_PROFILES, STAGE_OF_GROUP, VARIANT_ALIASES,
                           VARIANTS, ModelConfig, VqaModel, canonical_variant,
                           parameter_layout)
from cubevqa.tensor import InvalidArgumentError
from cubevqa.training import substream


def desk_config(variant="cva", **kw):
    base = dict(variant=variant, vocab_size=11, num_answers=7, feat_dim=12,
                embed_dim=6, hidden_dim=10, attn_dim=8, fuse_dim=9)
    base.update(kw)
    return ModelConfig(**base)


def test_variant_names_and_alias():
    assert canonical_variant("R-CVA") == "cva-v"
    assert canonical_variant("CVA") == "cva"
    with pytest.raises(InvalidArgumentError) as err:
        canonical_variant("warp")
    assert "cva-v" in str(err.value)


def test_config_accepts_numpy_integer_sizes():
    config = desk_config(feat_dim=np.int64(12), num_answers=np.int32(7))
    assert VqaModel(config, seed=0).store["clf.w_visual"].value.shape == (9, 12)
    with pytest.raises(InvalidArgumentError):
        desk_config(feat_dim=np.float64(12.0))


@pytest.mark.parametrize("variant", VARIANTS)
def test_store_registers_the_parameter_layout(variant):
    # one table: the names, order, shapes and zero starts the model registers
    config = desk_config(variant)
    store = VqaModel(config, seed=0).store
    layout = parameter_layout(config)
    assert store.names() == list(layout)
    for name, (shape, zero) in layout.items():
        assert store[name].value.shape == shape
        assert (not store[name].value.any()) == zero, name


@pytest.mark.parametrize("strength", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_gain_strength(strength):
    with pytest.raises(InvalidArgumentError) as err:
        desk_config(channel_gain_strength=strength)
    assert "channel_gain_strength" in str(err.value)


def test_variant_parameter_sets():
    ca = VqaModel(desk_config("ca"), seed=0)
    ra = VqaModel(desk_config("ra"), seed=0)
    cva = VqaModel(desk_config("cva"), seed=0)
    assert not any(n.startswith("spat.") for n in ca.store.names())
    assert not any(n.startswith("chan.") for n in ra.store.names())
    assert any(n.startswith("spat.") for n in cva.store.names())
    assert any(n.startswith("chan.") for n in cva.store.names())


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_groups_hold_every_leaf_once(variant):
    model = VqaModel(desk_config(variant), seed=0)
    leaves = model.leaves()
    groups = model._groups(leaves)
    lacking = {"ca": {"spat"}, "ra": {"chan"}}.get(variant, set())
    assert len(groups) == len(STAGE_OF_GROUP)
    seen = []
    for group, params in zip(STAGE_OF_GROUP, groups):
        assert (params is None) == (group in lacking), group
        for attr, leaf in (vars(params) if params else {}).items():
            assert leaves[f"{group}.{attr}"] is leaf
            seen.append(f"{group}.{attr}")
    assert sorted(seen) == sorted(leaves)
    # the store registers groups in one order whatever the attention order,
    # so a variant's arena and checkpoint layout do not depend on it
    prefixes = [name.partition(".")[0] for name in model.store.names()]
    assert prefixes == sorted(prefixes, key=list(STAGE_OF_GROUP).index)


def test_variants_share_initialization_per_name():
    # named init sub-streams make common parameters identical across variants
    ca = VqaModel(desk_config("ca"), seed=5)
    cva = VqaModel(desk_config("cva"), seed=5)
    for name in ca.store.names():
        npt.assert_array_equal(ca.store[name].value, cva.store[name].value)


def test_bias_zero_and_weights_fan_scaled():
    model = VqaModel(desk_config("cva"), seed=1)
    npt.assert_array_equal(model.store["enc.b_update"].value, np.zeros(10))
    npt.assert_array_equal(model.store["clf.b_out"].value, np.zeros(7))
    w = model.store["spat.w_visual"].value
    limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
    assert np.max(np.abs(w)) <= limit


def test_encoder_input_leaves_stack_the_per_gate_parameters():
    # the encoder is registered kind-major, so each gate triple of input
    # weights and of biases is one span of the arena, read as one leaf
    model = VqaModel(desk_config("cva"), seed=2)
    gates = ("update", "reset", "cand")
    assert model.store.names()[:10] == ["enc.embed"] + [
        f"enc.{kind}_{gate}" for kind in ("w", "u", "b") for gate in gates]
    leaves = model.leaves()
    for stacked, kind in (("enc.w_input", "w"), ("enc.b_input", "b")):
        parts = [model.store[f"enc.{kind}_{gate}"] for gate in gates]
        npt.assert_array_equal(leaves[stacked].value,
                               np.concatenate([p.value for p in parts]))
        assert np.shares_memory(leaves[stacked].value, parts[0].value)
        assert np.shares_memory(leaves[stacked].grad, parts[2].grad)
        assert f"enc.{kind}_update" not in leaves
    with pytest.raises(InvalidArgumentError):  # not one after another
        model.store.stacked(["enc.w_update", "enc.w_cand"])
    with pytest.raises(InvalidArgumentError):  # (H, E) then (H, H) rows
        model.store.stacked(["enc.w_cand", "enc.u_update"])


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_leaves_are_built_once_and_read_a_restored_checkpoint(variant, tmp_path):
    config = desk_config(variant)
    batch = make_batch(config, batch=4, seed=5)
    trained = VqaModel(config, seed=6)
    trained.train_step_forward_backward([batch])
    training.adam_step(trained.store, training.TrainConfig())
    path = str(tmp_path / "checkpoint.cvac")
    training.save_checkpoint(trained.store, path)

    model = VqaModel(config, seed=7)
    assert model.leaves() is model.leaves()
    before = model.predict_batch(batch)
    training.restore_checkpoint(model.store, training.load_checkpoint(path))
    after = model.predict_batch(batch)
    assert after.tobytes() == trained.predict_batch(batch).tobytes()
    assert after.tobytes() != before.tobytes()


def make_batch(model_cfg, batch=5, k=4, seed=0):
    rng = substream(seed, "test-batch")
    feats = rng.uniform(-1, 1, (batch, k, model_cfg.feat_dim))
    lengths = rng.integers(1, 6, size=batch)
    t_max = int(lengths.max())
    ids = np.zeros((batch, t_max), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ids[i, :ln] = rng.integers(0, model_cfg.vocab_size, size=ln)
    labels = rng.integers(0, model_cfg.num_answers, size=batch)
    return Batch(features=feats, token_ids=ids, lengths=lengths, labels=labels)


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_batched_forward_matches_instance_forward(variant):
    config = desk_config(variant)
    model = VqaModel(config, seed=2)
    batch = make_batch(config)
    scores = model.predict_batch(batch)
    for i in range(batch.labels.size):
        single = model.predict_batch(Batch(
            features=batch.features[i:i + 1],
            token_ids=batch.token_ids[i:i + 1, :batch.lengths[i]],
            lengths=batch.lengths[i:i + 1], labels=batch.labels[i:i + 1]))
        npt.assert_allclose(scores[i], single[0], atol=1e-12)


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_attention_readout_of_a_batch_matches_each_example_alone(variant):
    config = desk_config(variant)
    model = VqaModel(config, seed=4)
    batch = make_batch(config)
    beta, eta = model.attention_readout(batch)
    assert (beta is None) == (variant == "ra") and (eta is None) == (variant == "ca")
    for weights, shape in ((beta, (5, config.feat_dim)), (eta, (5, 4))):
        if weights is not None:
            assert weights.shape == shape
            npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    for i in range(batch.labels.size):
        alone = model.attention_readout(Batch(
            features=batch.features[i:i + 1],
            token_ids=batch.token_ids[i:i + 1, :batch.lengths[i]],
            lengths=batch.lengths[i:i + 1], labels=batch.labels[i:i + 1]))
        for weights, single in zip((beta, eta), alone):
            if weights is not None:
                npt.assert_allclose(weights[i], single[0], atol=1e-12)


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_batched_gradients_match_instance_sum(variant):
    config = desk_config(variant)
    model = VqaModel(config, seed=3)
    batch = make_batch(config, batch=4)
    model.train_step_forward_backward([batch])
    batched_grads = {n: model.store[n].grad.copy() for n in model.store.names()}

    fresh = VqaModel(config, seed=3)
    tape = T.Tape()
    total = None
    for i in range(4):
        loss_i = fresh.instance_loss(tape, batch.features[i],
                                     batch.token_ids[i, :batch.lengths[i]],
                                     batch.labels[i])
        part = T.scale(tape, loss_i, 0.25)
        total = part if total is None else T.add(tape, total, part)
    tape.backward(total)
    for n in batched_grads:
        npt.assert_allclose(batched_grads[n], fresh.store[n].grad, atol=1e-12,
                            err_msg=n)


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_constant_inputs_get_no_gradient_and_change_no_parameter_gradient(
        variant, monkeypatch):
    # the feature map, dropout mask, gain offset and initial state enter as
    # constants; made plain leaves, they get gradients the parameters never
    # read, so the store's gradients must keep every bit
    config = desk_config(variant)
    batch = make_batch(config, batch=4, k=5, seed=11)
    made = {}
    for kind, make in (("constant", T.constant), ("leaf", T.Tensor)):
        def record(value, make=make, kind=kind):
            node = make(value)
            made.setdefault(kind, []).append(node)
            return node

        monkeypatch.setattr(T, "constant", record)
        model = VqaModel(config, seed=12)
        tape = T.Tape()
        loss, _ = model.batch_loss(tape, batch, dropout_rate=0.5,
                                   dropout_rng=substream(13, "dropout"))
        tape.backward(loss)
        made[kind + " grads"] = model.store.flat_grad.copy()
    assert made["constant grads"].tobytes() == made["leaf grads"].tobytes()
    (features,) = [n for n in made["constant"] if n.value.shape == batch.features.shape]
    assert features.grad is None and all(n.grad is None for n in made["constant"])
    (features,) = [n for n in made["leaf"] if n.value.shape == batch.features.shape]
    assert features.grad is not None


def pad_regions(batch, k):
    """``batch`` with its maps zero-padded to ``k`` regions, counts kept."""
    b, k0, d = batch.features.shape
    features = np.zeros((b, k, d))
    features[:, :k0] = batch.features
    return Batch(features=features, token_ids=batch.token_ids, lengths=batch.lengths,
                 labels=batch.labels, region_counts=batch.region_counts)


def concat_batches(*batches):
    """One padded batch holding the examples of ``batches`` in order."""
    k = max(b.features.shape[1] for b in batches)
    t = max(b.token_ids.shape[1] for b in batches)
    padded = [pad_regions(b, k) for b in batches]
    ids = [np.pad(b.token_ids, ((0, 0), (0, t - b.token_ids.shape[1]))) for b in batches]
    return Batch(features=np.concatenate([b.features for b in padded]),
                 token_ids=np.concatenate(ids),
                 lengths=np.concatenate([b.lengths for b in batches]),
                 labels=np.concatenate([b.labels for b in batches]),
                 region_counts=np.concatenate([b.region_counts for b in batches]))


def test_mixed_region_counts_in_one_step():
    config = desk_config("cva")
    model = VqaModel(config, seed=4)
    b1 = make_batch(config, batch=3, k=4, seed=1)
    b2 = make_batch(config, batch=2, k=6, seed=2)
    loss, preds, labels = model.train_step_forward_backward([concat_batches(b1, b2)])
    assert np.isfinite(loss)
    assert preds.shape == (5,)
    assert labels.shape == (5,)


@pytest.mark.parametrize("tanh_after_sum", [True, False])
@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_padded_regions_leave_loss_and_gradients_unchanged(variant, tanh_after_sum):
    config = desk_config(variant, tanh_after_sum=tanh_after_sum)
    batch = make_batch(config, batch=3, k=4, seed=7)
    results = []
    for padded in (batch, pad_regions(batch, 7)):
        model = VqaModel(config, seed=8)
        loss, _, _ = model.train_step_forward_backward([padded])
        results.append((loss, model.store.flat_grad.copy()))
    (loss, grad), (padded_loss, padded_grad) = results
    assert abs(padded_loss - loss) <= 1e-15
    assert np.abs(padded_grad - grad).max() <= 1e-15


@pytest.mark.parametrize("variant", ["ca", "ra", "cva", "cva-v"])
def test_mixed_region_count_batch_matches_each_example_alone(variant):
    config = desk_config(variant)
    model = VqaModel(config, seed=9)
    singles = [make_batch(config, batch=1, k=k, seed=10 + i)
               for i, k in enumerate((3, 1, 6, 4, 6))]
    scores = model.predict_batch(concat_batches(*singles))
    for row, single in enumerate(singles):
        npt.assert_allclose(scores[row], model.predict_batch(single)[0], rtol=0,
                            atol=1e-12)


def test_batch_rejects_region_counts_outside_the_map():
    batch = make_batch(desk_config(), batch=2, k=4)
    for counts in ([4, 5], [0, 4], [4], [[4, 4]]):
        with pytest.raises(InvalidArgumentError):
            Batch(features=batch.features, token_ids=batch.token_ids,
                  lengths=batch.lengths, labels=batch.labels, region_counts=counts)


def test_desk_cva_step_never_holds_the_joint_channel_map(monkeypatch):
    # the channel scorer's (B, D, h_a) tanh map is worked through in tiles,
    # so no node of a training step's tape holds that many values
    config = ModelConfig.from_profile("desk", variant="cva", vocab_size=11,
                                      num_answers=7, feat_dim=32)
    model = VqaModel(config, seed=6)
    batch = make_batch(config, batch=16, k=6)
    tapes = []

    class RecordingTape(T.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(T, "Tape", RecordingTape)
    model.train_step_forward_backward([batch])
    joint = batch.labels.size * config.feat_dim * config.attn_dim
    (tape,) = tapes
    assert len(tape) > 0
    for node in tape._nodes:
        assert node.value.size < joint
        assert node.grad is None or node.grad.size < joint


# the primitives one training step records, in order, as the hand-written
# pipeline of each variant recorded them before ``attention.attend``
RECORDED_PRIMITIVES = {
    "ca": ("embedding_lookup", "affine", "gru",
           "mean_over_rows", "mul_vec", "add_vec", "affine", "channel_scores",
           "add_scalar", "softmax", "scale", "add", "mul_vec", "mean_over_rows",
           "affine", "affine", "add", "tanh", "mul", "affine", "cross_entropy",
           "mean_all"),
    "ra": ("embedding_lookup", "affine", "gru",
           "affine", "affine", "add_vec", "tanh", "matvec_last", "add_scalar",
           "softmax", "weighted_row_sum",
           "affine", "affine", "add", "tanh", "mul", "affine", "cross_entropy",
           "mean_all"),
    "cva": ("embedding_lookup", "affine", "gru",
            "mean_over_rows", "mul_vec", "add_vec", "affine", "channel_scores",
            "add_scalar", "softmax", "scale", "add", "mul_vec",
            "affine", "affine", "add_vec", "tanh", "matvec_last", "add_scalar",
            "softmax", "weighted_row_sum",
            "affine", "affine", "add", "tanh", "mul", "affine", "cross_entropy",
            "mean_all"),
    "cva-v": ("embedding_lookup", "affine", "gru",
              "affine", "affine", "add_vec", "tanh", "matvec_last", "add_scalar",
              "softmax", "scale_rows",
              "mean_over_rows", "mul_vec", "add_vec", "affine", "channel_scores",
              "add_scalar", "softmax", "scale", "add", "mul_vec", "mean_over_rows",
              "affine", "affine", "add", "tanh", "mul", "affine", "cross_entropy",
              "mean_all"),
}


@pytest.mark.parametrize("variant", sorted(RECORDED_PRIMITIVES))
def test_training_step_records_the_variant_primitive_sequence(monkeypatch, variant):
    # the same primitives in the same order give bit-identical training
    model = VqaModel(desk_config(variant), seed=0)
    tapes = []

    class RecordingTape(T.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(T, "Tape", RecordingTape)
    model.train_step_forward_backward([make_batch(model.config)], dropout_rate=0.5,
                                      dropout_rng=substream(0, "dropout"))
    (tape,) = tapes
    assert ([node._backward.__qualname__ for node in tape._nodes]
            == [f"{op}.<locals>.backward" for op in RECORDED_PRIMITIVES[variant]])


def test_only_the_model_module_spells_a_variant_name():
    # which stages a variant runs is decided in model.ATTENTION_ORDER alone
    names = set(VARIANTS) | set(VARIANT_ALIASES)
    assert names >= {"ca", "ra", "cva", "cva-v"}
    package = pathlib.Path(cubevqa.__file__).parent
    spelled = [(path.name, node.lineno, node.value)
               for path in sorted(package.glob("*.py")) if path.name != "model.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and node.value in names]
    assert spelled == []


def test_dimension_profiles():
    assert DIMENSION_PROFILES["full"]["hidden_dim"] == 1024
    config = ModelConfig.from_profile("full", variant="cva", vocab_size=50,
                                      num_answers=2000, feat_dim=2048)
    assert config.attn_dim == 1024
    assert config.embed_dim == 300


@pytest.mark.slow
def test_full_scale_forward_backward_one_step():
    # production-regime dimensions on one example; a desktop-class machine
    # completes the step within seconds
    config = ModelConfig.from_profile("full", variant="cva", vocab_size=1000,
                                      num_answers=2000, feat_dim=2048)
    model = VqaModel(config, seed=0)
    rng = substream(0, "full-scale")
    batch = Batch(features=rng.uniform(-1, 1, (1, 36, 2048)),
                  token_ids=rng.integers(0, 1000, size=(1, 8)),
                  lengths=np.array([8]),
                  labels=np.array([7]))
    start = time.perf_counter()
    loss, preds, _ = model.train_step_forward_backward([batch])
    elapsed = time.perf_counter() - start
    assert np.isfinite(loss)
    assert preds.shape == (1,)
    for name in ("chan.vis_scale", "spat.w_visual", "enc.embed", "clf.w_out"):
        grad = model.store[name].grad
        assert grad.shape == model.store[name].value.shape
        assert np.all(np.isfinite(grad))
    assert elapsed < 10.0
    beta, eta = model.attention_readout(batch)
    assert beta.shape == (1, 2048)
    assert eta.shape == (1, 36)


# one training step of the documented full configuration (profile ``full``,
# TrainConfig's defaults, batch 256), run after capping the address space
# at argv[1] bytes; prints the loss and the peak RSS in KiB
_FULL_BATCH_STEP = """
import resource, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from cubevqa import training
from cubevqa.model import Batch, ModelConfig, VqaModel
config = training.TrainConfig(profile="full")
model = VqaModel(ModelConfig.from_profile("full", variant="cva", vocab_size=1000,
                                          num_answers=2000, feat_dim=2048), seed=0)
rng = training.substream(0, "full-batch")
b = config.batch_size
batch = Batch(features=rng.uniform(-1, 1, (b, 36, 2048)),
              token_ids=rng.integers(0, 1000, size=(b, 8)),
              lengths=np.full(b, 8), labels=rng.integers(0, 2000, size=b))
loss, _, _ = model.train_step_forward_backward(
    [batch], dropout_rate=config.dropout,
    dropout_rng=training.substream(0, "dropout", 0))
training.clip_gradients(model.store, config.clip_norm)
training.adam_step(model.store, config)
print(loss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_desk_and_eval_shapes_start_no_thread(monkeypatch):
    # every product of a desk step and of eval's largest batch is below
    # PRODUCT_MIN_WORK; ra, since the channel scorer has several tiles at
    # D=2048
    monkeypatch.setattr(T, "USABLE_CORES", 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(T.threading, "Thread", no_thread)
    rng = np.random.default_rng(0)
    config = training.TrainConfig(batch_size=16, profile="desk")
    desk = VqaModel(ModelConfig.from_profile("desk", variant="cva", vocab_size=50,
                                             num_answers=12, feat_dim=32), seed=0)
    batch = Batch(features=rng.random((16, 6, 32)), token_ids=rng.integers(1, 50, (16, 8)),
                  lengths=np.full(16, 8), labels=rng.integers(0, 12, 16))
    desk.train_step_forward_backward([batch], dropout_rate=0.5, dropout_rng=rng)
    training.adam_step(desk.store, config,
                       grad_norm=training.clip_gradients(desk.store, config.clip_norm))
    ra = VqaModel(ModelConfig.from_profile("desk", variant="ra", vocab_size=50,
                                           num_answers=12, feat_dim=2048), seed=0)
    scores = ra.predict_batch(Batch(
        features=rng.random((64, 12, 2048)), token_ids=rng.integers(1, 50, (64, 14)),
        lengths=np.full(64, 14), labels=np.zeros(64, dtype=np.int64)))
    assert scores.shape == (64, 12)


@pytest.mark.slow
def test_full_profile_default_batch_step_fits_in_memory():
    # a fresh child process, so that its peak RSS is the step's own; the
    # 4 GiB address-space cap makes a regression fail with MemoryError
    # instead of exhausting the machine
    src = os.path.dirname(os.path.dirname(os.path.abspath(cubevqa.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FULL_BATCH_STEP, str(4 << 30)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loss, peak_kib = proc.stdout.split()
    assert np.isfinite(float(loss))
    assert int(peak_kib) <= 2.5 * 2**20, f"peak RSS {int(peak_kib) / 1024:.0f} MiB"


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # perfbench/ calls the model's API (``_groups``, ``instance_loss``,
    # ``predict_batch``, ...); its self-test fails when a change breaks it.
    # It writes only under the git-ignored perfbench/work/.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
    assert "0 failure(s)" in proc.stdout
