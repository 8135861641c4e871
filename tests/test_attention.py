"""Channel/region attention: contracts, permutation properties, oracles."""

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa.attention as A
import cubevqa.tensor as T
from cubevqa.model import ATTENTION_ORDER
from cubevqa.tensor import Tape, Tensor
from helpers import (channel_params_as_lists, naive_ca_only, naive_cva,
                     naive_cva_v, naive_ra_only, spatial_params_as_lists)


def chan_params(d, h_a, hidden, seed=0, zero=False):
    rng = np.random.default_rng(seed)

    def init(shape):
        return Tensor(np.zeros(shape) if zero else rng.uniform(-0.6, 0.6, shape))

    return SimpleNamespace(
        vis_scale=init((d,)), vis_shift=init((d,)),
        w_question=init((h_a, hidden)), b_question=init((h_a,)),
        w_score=init((h_a,)), b_score=init(()))


def spat_params(d, h_a, hidden, seed=0, zero=False):
    rng = np.random.default_rng(seed + 100)

    def init(shape):
        return Tensor(np.zeros(shape) if zero else rng.uniform(-0.6, 0.6, shape))

    return SimpleNamespace(
        w_visual=init((h_a, d)), b_visual=init((h_a,)),
        w_question=init((h_a, hidden)), b_question=init((h_a,)),
        w_score=init((h_a,)), b_score=init(()))


def random_instance(k=4, d=6, hidden=5, seed=0):
    """One ``(K, D)`` map and question as a batch of one."""
    rng = np.random.default_rng(seed)
    return (Tensor(rng.uniform(-1.5, 1.5, (1, k, d))),
            Tensor(rng.uniform(-1, 1, (1, hidden))))


def full_mask(batch, k):
    """The mask of a ``(batch, k, D)`` map whose every row is a region."""
    return A.RegionMask(np.full(batch, k), k)


def attend(variant, v, mask, q, chan, spat, **kw):
    """The tapeless pipeline of one variant."""
    return A.attend(None, ATTENTION_ORDER[variant], v, mask, q, chan, spat, **kw)


# ---------------------------------------------------------------------------
# channel mean pooling


def test_channel_mean_pool_cases():
    npt.assert_array_equal(
        A.channel_mean_pool(None, Tensor(np.array([[[1.0, 3.0], [3.0, 5.0]]])),
                            full_mask(1, 2)).value[0],
        [2.0, 4.0])
    single = np.array([[[0.5, -1.0, 2.0]]])
    npt.assert_array_equal(
        A.channel_mean_pool(None, Tensor(single), full_mask(1, 1)).value[0], single[0, 0])


def test_channel_mean_pool_permutation_invariant():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((1, 5, 7))
    mask = full_mask(1, 5)
    base = A.channel_mean_pool(None, Tensor(v), mask).value
    for _ in range(5):
        perm = rng.permutation(5)
        out = A.channel_mean_pool(None, Tensor(v[:, perm]), mask).value
        npt.assert_allclose(out, base, atol=1e-12)


# ---------------------------------------------------------------------------
# channel attention


def test_channel_attention_zero_params_uniform():
    d = 6
    params = chan_params(d, 4, 5, zero=True)
    u_bar = Tensor(np.random.default_rng(2).standard_normal((1, d)))
    q = Tensor(np.random.default_rng(3).standard_normal((1, 5)))
    beta = A.channel_attention(None, u_bar, q, params).value
    npt.assert_allclose(beta[0], np.full(d, 1 / d), atol=1e-15)


def test_channel_attention_permutes_with_channel_relabeling():
    d, h_a, hidden = 6, 4, 5
    params = chan_params(d, h_a, hidden, seed=4)
    rng = np.random.default_rng(5)
    u_bar = rng.standard_normal((1, d))
    q = Tensor(rng.standard_normal((1, hidden)))
    beta = A.channel_attention(None, Tensor(u_bar), q, params).value
    perm = rng.permutation(d)
    permuted = SimpleNamespace(
        vis_scale=Tensor(params.vis_scale.value[perm]),
        vis_shift=Tensor(params.vis_shift.value[perm]),
        w_question=params.w_question, b_question=params.b_question,
        w_score=params.w_score, b_score=params.b_score)
    beta_perm = A.channel_attention(None, Tensor(u_bar[:, perm]), q, permuted).value
    npt.assert_allclose(beta_perm, beta[:, perm], atol=1e-12)


def test_channel_attention_full_scale_shapes():
    params = chan_params(2048, 8, 5, seed=6)
    u_bar = Tensor(np.random.default_rng(7).standard_normal((1, 2048)))
    q = Tensor(np.random.default_rng(8).standard_normal((1, 5)))
    beta = A.channel_attention(None, u_bar, q, params).value
    assert beta.shape == (1, 2048)
    npt.assert_allclose(beta.sum(), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# applying weights


def test_channel_modulation_uniform_and_annihilation():
    v = Tensor(np.array([[[2.0, 4.0]]]))
    npt.assert_array_equal(
        T.mul_vec(None, v, Tensor(np.array([[0.5, 0.5]]))).value[0],
        [[1.0, 2.0]])
    npt.assert_array_equal(
        T.mul_vec(None, v, Tensor(np.array([[1.0, 0.0]]))).value[0],
        [[2.0, 0.0]])


def test_channel_modulation_matches_double_loop():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((1, 4, 6))
    beta = rng.uniform(0, 1, (1, 6))
    out = T.mul_vec(None, Tensor(v), Tensor(beta)).value
    for i in range(4):
        for j in range(6):
            assert out[0, i, j] == pytest.approx(beta[0, j] * v[0, i, j], abs=1e-15)


def test_apply_spatial_weights_ones_equals_mean():
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.standard_normal((1, 5, 7))
        out = A.apply_spatial_weights(None, Tensor(np.ones((1, 5))), Tensor(v),
                                      full_mask(1, 5)).value
        npt.assert_allclose(out[0], v[0].mean(axis=0), atol=1e-15)


def test_apply_spatial_weights_hand_case():
    rows = np.array([[[2.0, 6.0], [4.0, 8.0]]])
    out = A.apply_spatial_weights(None, Tensor(np.array([[1.0, 0.0]])),
                                  Tensor(rows), full_mask(1, 2)).value
    npt.assert_array_equal(out[0], rows[0, 0] / 2.0)


def test_apply_spatial_weights_uniform_softmax_is_scaled_mean():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((1, 6, 4))
    eta = np.full((1, 6), 1 / 6)
    out = A.apply_spatial_weights(None, Tensor(eta), Tensor(v), full_mask(1, 6)).value
    npt.assert_allclose(out[0], v[0].mean(axis=0) / 6.0, atol=1e-15)


# ---------------------------------------------------------------------------
# spatial attention


def test_spatial_attention_zero_params_uniform():
    for k in (2, 5):
        params = spat_params(6, 4, 5, zero=True)
        v, q = random_instance(k=k, d=6, hidden=5, seed=12)
        eta = A.spatial_attention(None, v, full_mask(1, k), q, params).value
        npt.assert_allclose(eta[0], np.full(k, 1 / k), atol=1e-15)


@pytest.mark.parametrize("tanh_after_sum", [False, True])
def test_spatial_attention_permutation_equivariant(tanh_after_sum):
    params = spat_params(6, 4, 5, seed=13)
    v, q = random_instance(k=5, d=6, hidden=5, seed=14)
    mask = full_mask(1, 5)
    eta = A.spatial_attention(None, v, mask, q, params,
                              tanh_after_sum=tanh_after_sum).value
    rng = np.random.default_rng(15)
    for _ in range(5):
        perm = rng.permutation(5)
        eta_perm = A.spatial_attention(None, Tensor(v.value[:, perm]), mask, q, params,
                                       tanh_after_sum=tanh_after_sum).value
        npt.assert_allclose(eta_perm, eta[:, perm], atol=1e-12)


def test_spatial_attention_literal_form_ignores_question():
    # with the question term outside the tanh, softmax shift-invariance
    # removes it entirely
    params = spat_params(6, 4, 5, seed=16)
    v, _ = random_instance(k=4, d=6, hidden=5, seed=17)
    rng = np.random.default_rng(18)
    mask = full_mask(1, 4)
    etas = [A.spatial_attention(None, v, mask, Tensor(rng.standard_normal((1, 5))), params,
                                tanh_after_sum=False).value for _ in range(3)]
    npt.assert_allclose(etas[0], etas[1], atol=1e-12)
    npt.assert_allclose(etas[0], etas[2], atol=1e-12)


def test_spatial_attention_question_aware_form_uses_question():
    params = spat_params(6, 4, 5, seed=19)
    v, _ = random_instance(k=4, d=6, hidden=5, seed=20)
    mask = full_mask(1, 4)
    rng = np.random.default_rng(21)
    eta_a = A.spatial_attention(None, v, mask, Tensor(rng.standard_normal((1, 5))),
                                params, tanh_after_sum=True).value
    eta_b = A.spatial_attention(None, v, mask, Tensor(rng.standard_normal((1, 5))),
                                params, tanh_after_sum=True).value
    assert np.max(np.abs(eta_a - eta_b)) > 1e-6


def test_spatial_attention_full_scale_region_count():
    params = spat_params(8, 4, 5, seed=22)
    v, q = random_instance(k=36, d=8, hidden=5, seed=23)
    eta = A.spatial_attention(None, v, full_mask(1, 36), q, params).value
    assert eta.shape == (1, 36)


# ---------------------------------------------------------------------------
# pipelines: uniform cases and shape contracts


def test_cva_zero_params_literal_prefactors():
    k, d = 4, 6
    chan = chan_params(d, 3, 5, zero=True)
    spat = spat_params(d, 3, 5, zero=True)
    v, q = random_instance(k=k, d=d, hidden=5, seed=24)
    mask = full_mask(1, k)
    out, beta, eta = attend("cva", v, mask, q, chan, spat, rescale_channel_gains=False)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / (k * d), atol=1e-14)
    npt.assert_allclose(beta.value[0], np.full(d, 1 / d), atol=1e-15)
    npt.assert_allclose(eta.value[0], np.full(k, 1 / k), atol=1e-15)
    # mean-one gains: uniform channel attention passes the map through
    out, _, _ = attend("cva", v, mask, q, chan, spat)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / k, atol=1e-14)


def test_cva_v_zero_params_literal_prefactors():
    k, d = 4, 6
    chan = chan_params(d, 3, 5, zero=True)
    spat = spat_params(d, 3, 5, zero=True)
    v, q = random_instance(k=k, d=d, hidden=5, seed=25)
    mask = full_mask(1, k)
    out, _, _ = attend("cva-v", v, mask, q, chan, spat, rescale_channel_gains=False)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / (k * d), atol=1e-14)
    out, _, _ = attend("cva-v", v, mask, q, chan, spat)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / k, atol=1e-14)


def test_ca_only_zero_params_mean_over_d():
    k, d = 5, 8
    chan = chan_params(d, 3, 5, zero=True)
    v, q = random_instance(k=k, d=d, hidden=5, seed=26)
    mask = full_mask(1, k)
    out, _, _ = attend("ca", v, mask, q, chan, None, rescale_channel_gains=False)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / d, atol=1e-14)
    out, _, _ = attend("ca", v, mask, q, chan, None)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0), atol=1e-14)


def test_ra_only_zero_params_mean_over_k():
    k, d = 5, 8
    spat = spat_params(d, 3, 5, zero=True)
    v, q = random_instance(k=k, d=d, hidden=5, seed=27)
    out, _, _ = attend("ra", v, full_mask(1, k), q, None, spat)
    npt.assert_allclose(out.value[0], v.value[0].mean(axis=0) / k, atol=1e-14)


def test_all_pipelines_output_length_d_for_any_k():
    d, hidden = 6, 5
    chan = chan_params(d, 3, hidden, seed=28)
    spat = spat_params(d, 3, hidden, seed=28)
    for k in (1, 4, 36):
        v, q = random_instance(k=k, d=d, hidden=hidden, seed=29)
        mask = full_mask(1, k)
        for variant in ATTENTION_ORDER:
            out, _, _ = attend(variant, v, mask, q, chan, spat)
            assert out.value.shape == (1, d)


def test_cva_v_single_region_trivial_spatial():
    d = 6
    chan = chan_params(d, 3, 5, seed=30)
    spat = spat_params(d, 3, 5, seed=30)
    v, q = random_instance(k=1, d=d, hidden=5, seed=31)
    _, _, eta = attend("cva-v", v, full_mask(1, 1), q, chan, spat)
    npt.assert_allclose(eta.value[0], [1.0], atol=1e-15)


def test_ca_equals_cva_with_uniform_spatial_stage():
    # structural equivalence: CA-only is the stacked pipeline with the
    # region stage replaced by the plain mean
    d = 6
    chan = chan_params(d, 3, 5, seed=32)
    v, q = random_instance(k=4, d=d, hidden=5, seed=33)
    mask = full_mask(1, 4)
    ca_out, beta, _ = attend("ca", v, mask, q, chan, None)
    gains = A._channel_gains(None, beta, rescale=True)
    modulated = T.mul_vec(None, v, gains)
    npt.assert_allclose(ca_out.value,
                        T.mean_over_rows(None, modulated, mask.counts).value, atol=1e-15)


def test_ra_only_region_permutation_invariant_output():
    d = 6
    spat = spat_params(d, 3, 5, seed=34)
    v, q = random_instance(k=5, d=d, hidden=5, seed=35)
    mask = full_mask(1, 5)
    base, _, _ = attend("ra", v, mask, q, None, spat, tanh_after_sum=True)
    rng = np.random.default_rng(36)
    for _ in range(5):
        perm = rng.permutation(5)
        out, _, _ = attend("ra", Tensor(v.value[:, perm]), mask, q, None, spat,
                           tanh_after_sum=True)
        npt.assert_allclose(out.value, base.value, atol=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence (scalar-loop re-implementation)


@pytest.mark.parametrize("tanh_after_sum", [False, True])
@pytest.mark.parametrize("rescale", [False, True])
def test_pipelines_match_scalar_loop_oracle(tanh_after_sum, rescale):
    rng = np.random.default_rng(37)
    for trial in range(8):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        hidden = int(rng.integers(2, 7))
        h_a = int(rng.integers(2, 7))
        chan = chan_params(d, h_a, hidden, seed=38 + trial)
        spat = spat_params(d, h_a, hidden, seed=38 + trial)
        v, q = random_instance(k=k, d=d, hidden=hidden, seed=39 + trial)
        mask = full_mask(1, k)
        vl, ql = v.value[0].tolist(), q.value[0].tolist()
        cl, sl = channel_params_as_lists(chan), spatial_params_as_lists(spat)

        out, beta, eta = attend("cva", v, mask, q, chan, spat,
                                tanh_after_sum=tanh_after_sum,
                                rescale_channel_gains=rescale)
        exp, exp_beta, exp_eta = naive_cva(vl, ql, cl, sl, tanh_after_sum, rescale)
        npt.assert_allclose(out.value[0], exp, atol=1e-10)
        npt.assert_allclose(beta.value[0], exp_beta, atol=1e-10)
        npt.assert_allclose(eta.value[0], exp_eta, atol=1e-10)

        out, _, _ = attend("cva-v", v, mask, q, chan, spat,
                           tanh_after_sum=tanh_after_sum, rescale_channel_gains=rescale)
        exp, _, _ = naive_cva_v(vl, ql, cl, sl, tanh_after_sum, rescale)
        npt.assert_allclose(out.value[0], exp, atol=1e-10)

        out, _, _ = attend("ca", v, mask, q, chan, None, rescale_channel_gains=rescale)
        exp, _ = naive_ca_only(vl, ql, cl, rescale)
        npt.assert_allclose(out.value[0], exp, atol=1e-10)

        out, _, _ = attend("ra", v, mask, q, None, spat, tanh_after_sum=tanh_after_sum)
        exp, _ = naive_ra_only(vl, ql, sl, tanh_after_sum)
        npt.assert_allclose(out.value[0], exp, atol=1e-10)


# ---------------------------------------------------------------------------
# batched equivalence and gradients


def test_batched_pipelines_match_per_example():
    rng = np.random.default_rng(40)
    k, d, hidden, h_a, batch = 4, 6, 5, 3, 7
    chan = chan_params(d, h_a, hidden, seed=41)
    spat = spat_params(d, h_a, hidden, seed=41)
    vs = rng.uniform(-1, 1, (batch, k, d))
    qs = rng.uniform(-1, 1, (batch, hidden))
    pipelines = {
        "cva": dict(tanh_after_sum=True), "cva-v": dict(tanh_after_sum=True),
        "ca": {}, "ra": {},
    }
    for variant, kw in pipelines.items():
        batched, _, _ = attend(variant, Tensor(vs), full_mask(batch, k), Tensor(qs),
                               chan, spat, **kw)
        for i in range(batch):
            # each example alone is the batch's own slice, a batch of one
            single, _, _ = attend(variant, Tensor(vs[i:i + 1]), full_mask(1, k),
                                  Tensor(qs[i:i + 1]), chan, spat, **kw)
            npt.assert_allclose(batched.value[i], single.value[0], atol=1e-13)


@pytest.mark.parametrize("pipeline", ["cva", "cva-v", "ca", "ra"])
@pytest.mark.parametrize("tanh_after_sum", [False, True])
def test_pipeline_gradients_match_finite_differences(pipeline, tanh_after_sum):
    rng = np.random.default_rng(42)
    k, d, hidden, h_a = 3, 5, 4, 4
    target = rng.standard_normal((1, d))
    v_val = rng.uniform(-1, 1, (1, k, d))
    q_val = rng.uniform(-1, 1, (1, hidden))
    mask = full_mask(1, k)

    arrays = {}
    chan = chan_params(d, h_a, hidden, seed=43)
    spat = spat_params(d, h_a, hidden, seed=43)
    for prefix, params in (("chan", chan), ("spat", spat)):
        for name in vars(params):
            arrays[f"{prefix}.{name}"] = getattr(params, name).value

    def build(tape):
        fresh_chan, fresh_spat = (
            SimpleNamespace(**{n: Tensor(arrays[f"{prefix}.{n}"]) for n in vars(params)})
            for prefix, params in (("chan", chan), ("spat", spat)))
        v, q = Tensor(v_val), Tensor(q_val)
        out, _, _ = A.attend(tape, ATTENTION_ORDER[pipeline], v, mask, q, fresh_chan,
                             fresh_spat, tanh_after_sum=tanh_after_sum)
        err = T.add(tape, out, T.scale(tape, Tensor(target), -1.0))
        loss = T.mean_all(tape, T.mul(tape, err, err))
        return loss, fresh_chan, fresh_spat

    tape = Tape()
    loss, fchan, fspat = build(tape)
    tape.backward(loss)
    grads = {}
    for prefix, params in (("chan", fchan), ("spat", fspat)):
        for name in vars(params):
            leaf = getattr(params, name)
            grads[f"{prefix}.{name}"] = (leaf.grad if leaf.grad is not None
                                         else np.zeros_like(leaf.value))
    worst, _ = T.finite_difference_check(lambda: float(build(None)[0].value),
                                         arrays, grads, eps=1e-5)
    assert worst < 1e-4