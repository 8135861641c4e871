"""Primitive operations, tape replay, and the finite-difference checker."""

import ast
import inspect
import math
import pathlib
import re
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa.attention as A
import cubevqa.tensor as T
from cubevqa.tensor import (InvalidArgumentError, ShapeError, Tape, Tensor,
                            VocabularyError, constant)


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_equal_inputs():
    out = T.softmax(None, leaf([1.0, 1.0, 1.0]))
    npt.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_hand_computed():
    out = T.softmax(None, leaf([0.0, math.log(2.0)]))
    npt.assert_allclose(out.value, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-5, 5, size=7)
        c = rng.uniform(-100, 100)
        npt.assert_allclose(T.softmax(None, leaf(x)).value,
                            T.softmax(None, leaf(x + c)).value, atol=1e-14)


def test_softmax_stable_and_normalized_at_large_magnitude():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(-1e3, 1e3, size=9)
        out = T.softmax(None, leaf(x)).value
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0)
        if x.max() - x.min() < 700:
            # beyond a ~745 spread exp underflows to exactly zero in double
            assert np.all(out > 0)


def test_softmax_strictly_positive_at_moderate_magnitude():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-300, 300, size=9)
        out = T.softmax(None, leaf(x)).value
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        T.softmax(None, leaf([]))


# ---------------------------------------------------------------------------
# channel scores


def _channel_scores_oracle(vis, query, w, g):
    """Value and gradients of the plain numpy composition, for upstream ``g``."""
    t = np.tanh(vis[..., :, None] * query[..., None, :])
    value = t @ w
    s = g[..., None] * w * (1.0 - t * t)
    d_w = (g[..., None] * t).reshape(-1, w.size).sum(axis=0)
    return value, (s * query[..., None, :]).sum(axis=-1), (s * vis[..., None]).sum(axis=-2), d_w


@pytest.mark.parametrize("vis_shape,query_shape", [
    ((130, 32), (130, 64)),   # 128 examples fill a tile, then a short tile of 2
    ((2, 300), (2, 1024)),    # each example splits into 256 channels and a short 44
    ((1, 6), (1, 4)),         # a single example, a batch of one
    ((2, 3), (2, T.SCORE_TILE + 1)),  # one channel of one example overfills a tile
], ids=["examples-per-tile", "channels-per-tile", "single-example", "wider-than-a-tile"])
def test_channel_scores_match_numpy_composition(vis_shape, query_shape):
    rng = np.random.default_rng(vis_shape[0])
    vis, query = rng.standard_normal(vis_shape), rng.standard_normal(query_shape)
    w, g = rng.standard_normal(query_shape[-1]), rng.standard_normal(vis_shape)
    tape = Tape()
    leaves = leaf(vis), leaf(query), leaf(w)
    out = T.channel_scores(tape, *leaves)
    # mean_all divides the upstream gradient by the entry count
    tape.backward(T.mean_all(tape, T.mul(tape, out, constant(g * g.size))))
    expected = _channel_scores_oracle(vis, query, w, g)
    for got, want in zip((out.value,) + tuple(l.grad for l in leaves), expected):
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("vis_shape,query_shape", [
    ((3, 300), (3, 1024)),    # D * h > SCORE_TILE: tiles are channel slices of one example
    ((130, 32), (130, 64)),   # whole examples share a tile
], ids=["channels-per-tile", "examples-per-tile"])
def test_channel_scores_forward_is_the_broadcast_composition_bit_for_bit(vis_shape,
                                                                         query_shape):
    assert len(T._score_tiles(vis_shape[0], vis_shape[1], query_shape[1])) > 1
    rng = np.random.default_rng(vis_shape[1])
    vis, query = rng.standard_normal(vis_shape), rng.standard_normal(query_shape)
    w = rng.standard_normal(query_shape[-1])
    out = T.channel_scores(None, leaf(vis), leaf(query), leaf(w))
    npt.assert_array_equal(out.value,
                           np.matmul(np.tanh(vis[:, :, None] * query[:, None, :]), w))


@pytest.mark.parametrize("vis_shape,query_shape", [
    ((3, 300), (3, 1024)),               # two tiles per example, six in all
    ((2, 3), (2, T.SCORE_TILE + 1)),     # one channel of one example per tile
], ids=["channels-per-tile", "wider-than-a-tile"])
def test_channel_scores_are_bit_identical_at_any_core_count(monkeypatch, vis_shape,
                                                             query_shape):
    assert len(T._score_tiles(vis_shape[0], vis_shape[1], query_shape[1])) > 1
    rng = np.random.default_rng(vis_shape[1])
    vis, query = rng.standard_normal(vis_shape), rng.standard_normal(query_shape)
    w, g = rng.standard_normal(query_shape[-1]), rng.standard_normal(vis_shape)
    _at_each_core_count(monkeypatch, T.channel_scores, (vis, query, w), g)


def test_run_on_cores_splits_into_contiguous_runs_in_order(monkeypatch):
    monkeypatch.setattr(T, "USABLE_CORES", 3)
    assert T.run_on_cores(list(range(7)), lambda i, run: (i, run)) == [
        (0, [0, 1]), (1, [2, 3]), (2, [4, 5, 6])]
    # fewer items than cores: one run per item
    assert T.run_on_cores(range(2), lambda i, run: list(run)) == [[0], [1]]


@pytest.mark.parametrize("cores,items", [(1, 5), (2, 1), (3, 1)])
def test_run_on_cores_calls_work_directly_with_one_core_or_item(monkeypatch, cores, items):
    monkeypatch.setattr(T, "USABLE_CORES", cores)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(T.threading, "Thread", no_thread)
    caller = threading.current_thread()
    assert T.run_on_cores(list(range(items)), lambda i, run: (
        i, run, threading.current_thread() is caller)) == [(0, list(range(items)), True)]


def test_run_on_cores_raises_a_failed_run_on_the_caller_and_joins(monkeypatch):
    monkeypatch.setattr(T, "USABLE_CORES", 3)
    threads = threading.active_count()
    ran = []

    def work(i, run):
        ran.append(i)
        if i == 1:
            raise KeyError("second run")
        return run

    with pytest.raises(KeyError, match="second run"):
        T.run_on_cores(list(range(6)), work)
    assert sorted(ran) == [0, 1, 2]
    assert threading.active_count() == threads


def _at_each_core_count(monkeypatch, op, inputs, g):
    """Run ``op`` and its backward against ``g`` at 1, 2, 3 and 8 usable cores,
    more runs than this machine's cores, switching threads every microsecond.
    Asserts that the value and every input's gradient are bit-identical at
    all four; returns them at one core, and the threads each count started."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(T.threading, "Thread", Counted)
    results, threads = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(T, "USABLE_CORES", cores)
            del started[:]
            tape = Tape()
            leaves = [leaf(a) for a in inputs]
            out = op(tape, *leaves)
            tape.backward(T.mean_all(tape, T.mul(tape, out, constant(g))))
            results.append([out.value] + [l.grad for l in leaves])
            threads.append(len(started))
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            npt.assert_array_equal(a, b)
    return results[0], threads


_PINNED = pytest.mark.skipif(T._BLAS is None,
                             reason="numpy's bundled OpenBLAS is not reachable: nothing splits")


@_PINNED
def test_split_affine_is_bit_identical_at_any_core_count(monkeypatch):
    # 1034 rows of 512 inputs and 577 outputs: above the threshold, with
    # uneven row blocks in the value's and the weight gradient's cuts
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((2, 517, 512)), rng.standard_normal((577, 512))
    b, g = rng.standard_normal(577), rng.standard_normal((2, 517, 577))
    assert 1034 * 512 * 577 >= T.PRODUCT_MIN_WORK
    (value, *_), threads = _at_each_core_count(monkeypatch, T.affine, (x, w, b), g)
    # the value and the x gradient in 8 blocks, the w gradient in 4, whatever
    # the core count; each core past the first starts one thread per product
    assert threads == [0, 3, 6, 7 + 7 + 3]
    npt.assert_allclose(value, x @ w.T + b, rtol=1e-12, atol=1e-12)


@_PINNED
def test_split_gru_u_gradients_are_bit_identical_at_any_core_count(monkeypatch):
    # 9 steps of 130 rows with H=512: each U gradient is above the threshold,
    # each step product below it
    steps, batch, hidden = 9, 130, 512
    assert steps * batch * hidden * hidden >= T.PRODUCT_MIN_WORK > batch * hidden * hidden
    rng = np.random.default_rng(1)
    inputs = (rng.standard_normal((steps, batch, 3 * hidden)),
              rng.standard_normal((batch, hidden)),
              *(rng.standard_normal((hidden, hidden)) / hidden ** 0.5 for _ in range(3)))
    lengths = rng.integers(0, steps + 1, size=batch)
    _, threads = _at_each_core_count(
        monkeypatch, lambda tape, proj, h0, *us: T.gru(tape, proj, h0, lengths, *us),
        inputs, rng.standard_normal((batch, hidden)))
    # three U gradients of 512 rows, each in 4 blocks, and each step's update
    # gate beside its chain, forward and backward
    assert threads == [0, 3 + 18, 6 + 18, 9 + 18]


@_PINNED
def test_gru_gates_beside_the_chain_are_bit_identical_at_any_core_count(monkeypatch):
    # 3 steps of 32 rows with H=512: each step's gates run side by side, the
    # U gradients stay whole
    steps, batch, hidden = 3, 32, 512
    assert steps * batch * hidden * hidden < T.PRODUCT_MIN_WORK
    assert batch * hidden * hidden >= T.GATE_MIN_WORK
    rng = np.random.default_rng(3)
    inputs = (rng.standard_normal((steps, batch, 3 * hidden)),
              rng.standard_normal((batch, hidden)),
              *(rng.standard_normal((hidden, hidden)) / hidden ** 0.5 for _ in range(3)))
    lengths = rng.integers(0, steps + 1, size=batch)

    def op(tape, proj, h0, *us):
        return T.gru(tape, proj, h0, lengths, *us)

    g = rng.standard_normal((batch, hidden))
    beside, threads = _at_each_core_count(monkeypatch, op, inputs, g)
    # one thread per step, forward and backward, whatever the core count past one
    assert threads == [0, 2 * steps, 2 * steps, 2 * steps]
    # and the bits of the serial path
    monkeypatch.setattr(T, "GATE_MIN_WORK", math.inf)
    serial, threads = _at_each_core_count(monkeypatch, op, inputs, g)
    assert threads == [0, 0, 0, 0]
    for a, b in zip(beside, serial):
        npt.assert_array_equal(a, b)


def test_gru_gates_stay_on_one_core_where_blas_is_not_pinned(monkeypatch):
    # the paper's B*H*H, whose step products BLAS threads itself when unpinned
    monkeypatch.setattr(T, "_BLAS", None)
    monkeypatch.setattr(T, "USABLE_CORES", 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(T.threading, "Thread", no_thread)
    batch, hidden = 32, 1024
    assert batch * hidden * hidden >= T.GATE_MIN_WORK
    rng = np.random.default_rng(4)
    proj, us = leaf(rng.standard_normal((2, batch, 3 * hidden))), [
        leaf(rng.standard_normal((hidden, hidden)) / hidden ** 0.5) for _ in range(3)]
    tape = Tape()
    out = T.gru(tape, proj, constant(np.zeros((batch, hidden))), np.full(batch, 2), *us)
    tape.backward(T.mean_all(tape, out))
    assert all(u.grad.shape == (hidden, hidden) for u in us)


@pytest.mark.parametrize("rows, blocks", [
    (2000, 8), (1024, 8), (1023, 4), (512, 4), (511, 2), (256, 2), (255, 1), (3, 1)])
def test_product_blocks_follow_the_row_count_alone(monkeypatch, rows, blocks):
    # as many blocks as PRODUCT_BLOCKS, halved until each has
    # PRODUCT_BLOCK_ROWS rows; with more cores than blocks, one thread per
    # block past the first
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(T.threading, "Thread", Counted)
    monkeypatch.setattr(T, "USABLE_CORES", 16)
    rng = np.random.default_rng(rows)
    a, b = rng.standard_normal((rows, 5)), rng.standard_normal((5, 3))
    npt.assert_allclose(T._product_blocks(a, b), a @ b, rtol=1e-14, atol=1e-14)
    assert len(started) == blocks - 1


def test_products_stay_whole_where_blas_is_not_pinned(monkeypatch):
    # BLAS then threads the product itself; a split would compete with it
    monkeypatch.setattr(T, "_BLAS", None)
    monkeypatch.setattr(T, "USABLE_CORES", 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(T.threading, "Thread", no_thread)
    rng = np.random.default_rng(2)
    x, w = leaf(rng.standard_normal((1034, 512))), leaf(rng.standard_normal((577, 512)))
    tape = Tape()
    tape.backward(T.mean_all(tape, T.affine(tape, x, w)))
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


@pytest.mark.parametrize("calls", T._BLAS_THREAD_CALLS)
def test_bundled_openblas_is_found_under_each_wheels_names(monkeypatch, calls):
    # numpy 2.x and 1.x wheels name the thread calls differently; a library
    # without them (here the first) is passed over
    class Library:
        def __init__(self, names):
            for name in names:
                setattr(self, name, name)

    libraries = {"a.so": Library(()), "b.so": Library(calls)}
    monkeypatch.setattr(T.glob, "glob", lambda pattern: list(libraries))
    monkeypatch.setattr(T.ctypes, "CDLL", lambda path: libraries[path])
    assert T._bundled_openblas() == calls
    libraries["b.so"] = Library(calls[:1])   # a setter without its getter
    assert T._bundled_openblas() is None


def test_score_tiles_at_the_desk_and_full_shapes():
    assert T._score_tiles(16, 32, 64) == [(slice(0, 16), slice(0, 32))]
    assert T._score_tiles(32, 2048, 1024) == [(slice(b, b + 1), slice(d0, d0 + 256))
                                              for b in range(32) for d0 in range(0, 2048, 256)]


@pytest.mark.parametrize("shape", [
    (16, 32, 64), (130, 32, 64), (2, 300, 1024), (1, 6, 4), (3, 5, 7), (7, 1, 3),
    (5, 1, T.SCORE_TILE // 2 + 1), (3, 2, T.SCORE_TILE), (2, 3, T.SCORE_TILE + 1),
    (1, 1, 3 * T.SCORE_TILE)])
def test_score_tiles_cover_each_row_once_within_a_tile(shape):
    batch, channels, width = shape
    covered = np.zeros((batch, channels), dtype=int)
    for rows, cols in T._score_tiles(batch, channels, width):
        cells = covered[rows, cols].size
        # a tile is never smaller than one (example, channel) row
        assert cells > 0 and (cells * width <= T.SCORE_TILE or cells == 1)
        covered[rows, cols] += 1
    assert (covered == 1).all()


def test_channel_scores_rejects_bad_shapes():
    w = leaf(np.ones(4))
    with pytest.raises(ShapeError):  # batch sizes differ
        T.channel_scores(None, leaf(np.ones((2, 3))), leaf(np.ones((3, 4))), w)
    with pytest.raises(ShapeError):  # w does not match the query width
        T.channel_scores(None, leaf(np.ones((2, 3))), leaf(np.ones((2, 4))), leaf(np.ones(5)))
    with pytest.raises(ShapeError):  # more than two dimensions
        T.channel_scores(None, leaf(np.ones((2, 2, 3))), leaf(np.ones((2, 2, 4))), w)
    with pytest.raises(ShapeError):  # one example without the batch axis
        T.channel_scores(None, leaf(np.ones(3)), leaf(np.ones(4)), w)
    with pytest.raises(InvalidArgumentError):
        T.channel_scores(None, leaf(np.ones((1, 0))), leaf(np.ones((1, 4))), w)


# ---------------------------------------------------------------------------
# affine


def test_affine_identity_and_zero_weight():
    x = leaf([5.0, 7.0])
    out = T.affine(None, x, leaf(np.eye(2)), leaf([0.0, 0.0]))
    npt.assert_array_equal(out.value, [5.0, 7.0])
    out = T.affine(None, x, leaf(np.zeros((2, 2))), leaf([1.0, 2.0]))
    npt.assert_array_equal(out.value, [1.0, 2.0])


def test_affine_hand_dot_product():
    out = T.affine(None, leaf([2.0, 3.0]), leaf([[1.0, 1.0]]), leaf([0.0]))
    npt.assert_array_equal(out.value, [5.0])


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.affine(None, leaf([1.0, 2.0, 3.0]), leaf([[1.0, 2.0]]))
    assert "(1, 2)" in str(err.value) and "(3,)" in str(err.value)


def test_affine_batched_matches_per_row():
    rng = np.random.default_rng(3)
    w, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
    xs = rng.standard_normal((5, 3))
    batched = T.affine(None, leaf(xs), leaf(w), leaf(b)).value
    for i in range(5):
        row = T.affine(None, leaf(xs[i]), leaf(w), leaf(b)).value
        npt.assert_allclose(batched[i], row, atol=1e-15)


# ---------------------------------------------------------------------------
# mean over rows


def row_mean(rows):
    """``mean_over_rows`` of one ``(K, n)`` matrix as a batch of one."""
    rows = np.asarray(rows, dtype=np.float64)
    return T.mean_over_rows(None, leaf(rows[None]), np.full((1, 1), len(rows))).value[0]


def test_mean_over_rows_cases():
    npt.assert_array_equal(row_mean([[1.0, 2.0], [3.0, 4.0]]), [2.0, 3.0])
    npt.assert_array_equal(row_mean([[7.0, -1.0]]), [7.0, -1.0])
    same = np.tile([2.5, 0.5, 1.5], (4, 1))
    npt.assert_array_equal(row_mean(same), [2.5, 0.5, 1.5])


# ---------------------------------------------------------------------------
# broadcast rules


def test_add_vec_and_mul_vec_broadcast():
    m = leaf([[1.0, 2.0], [3.0, 4.0]])
    v = leaf([10.0, 20.0])
    npt.assert_array_equal(T.add_vec(None, m, v).value, [[11.0, 22.0], [13.0, 24.0]])
    npt.assert_array_equal(T.mul_vec(None, m, v).value, [[10.0, 40.0], [30.0, 80.0]])


def test_no_silent_broadcast_elsewhere():
    with pytest.raises(ShapeError):
        T.add(None, leaf([1.0, 2.0]), leaf([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        T.mul(None, leaf([1.0, 2.0, 3.0]), leaf([1.0, 2.0]))
    with pytest.raises(ShapeError):
        T.add_vec(None, leaf([[1.0, 2.0]]), leaf([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):  # a same-shape operand is not a row vector
        T.add_vec(None, leaf([1.0, 2.0]), leaf([1.0, 2.0]))
    with pytest.raises(ShapeError):
        T.mul_vec(None, leaf([1.0, 2.0]), leaf([1.0, 2.0]))
    with pytest.raises(ShapeError):
        T.mul_vec(None, leaf([[1.0, 2.0]]), leaf([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        T.scale_rows(None, leaf([[1.0, 2.0]]), leaf([1.0, 2.0]))
    with pytest.raises(ShapeError):
        T.weighted_row_sum(None, leaf([[[1.0, 2.0]]]), leaf([[1.0, 2.0]]), np.ones(1))


# ---------------------------------------------------------------------------
# embedding


def test_embedding_lookup_out_of_range_names_position():
    table = leaf(np.eye(3))
    with pytest.raises(VocabularyError) as err:
        T.embedding_lookup(None, table, np.array([0, 5, 1]))
    assert "5" in str(err.value) and "position 1" in str(err.value)
    with pytest.raises(VocabularyError) as err:  # a (B, T) batch of sequences
        T.embedding_lookup(None, table, np.array([[0, 1, 2], [2, 1, -1]]))
    assert "-1" in str(err.value) and "position (1, 2)" in str(err.value)


# ---------------------------------------------------------------------------
# cross entropy


def one_loss(scores, label):
    """Cross-entropy of one score vector as a batch of one."""
    (value,) = T.cross_entropy(None, leaf([scores]), np.array([label])).value
    return float(value)


def test_cross_entropy_values():
    # concentrated scores make the label probability ~1
    assert one_loss([40.0, 0.0, 0.0], 0) < 1e-12
    # uniform scores give ln(A)
    npt.assert_allclose(one_loss([0.0] * 5, 2), math.log(5.0), atol=1e-15)
    # p = [0.25, 0.75] via logits log(1), log(3)
    loss = one_loss([0.0, math.log(3.0)], 1)
    npt.assert_allclose(loss, -math.log(0.75), atol=1e-15)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InvalidArgumentError):
        one_loss([0.0, 1.0], 2)
    with pytest.raises(ShapeError):  # the batch axis is required
        T.cross_entropy(None, leaf([0.0, 1.0]), 1)


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(100):
        assert one_loss(rng.uniform(-30, 30, size=6), int(rng.integers(6))) >= 0.0


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_constant_loss_leaves_zero_grads():
    tape = Tape()
    x = leaf([3.0])
    y = T.mul(tape, x, constant([0.0]))
    loss = T.mean_all(tape, y)
    tape.backward(loss)
    npt.assert_array_equal(x.grad, [0.0])


def test_backward_sum_of_squares():
    tape = Tape()
    x = leaf([3.0])
    loss = T.mean_all(tape, T.mul(tape, x, x))
    tape.backward(loss)
    npt.assert_allclose(x.grad, [6.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = leaf([1.0, 2.0])
    y = T.tanh(tape, x)
    with pytest.raises(InvalidArgumentError):
        tape.backward(y)


def test_tape_single_replay():
    tape = Tape()
    x = leaf([1.0])
    loss = T.mean_all(tape, T.tanh(tape, x))
    tape.backward(loss)
    with pytest.raises(InvalidArgumentError):
        tape.backward(loss)


def test_unused_nodes_keep_none_grads():
    tape = Tape()
    x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
    unused = T.tanh(tape, y)
    loss = T.mean_all(tape, T.tanh(tape, x))
    tape.backward(loss)
    assert unused.grad is None
    assert y.grad is None
    assert x.grad is not None


# ---------------------------------------------------------------------------
# per-op gradients against central differences


def _fd_for(op_builder, arrays, eps=1e-6):
    """Gradient-check an op composition terminating in mean_all."""
    params = {str(i): a.copy() for i, a in enumerate(arrays)}

    def build(tape, store):
        leaves = [Tensor(store[str(i)]) for i in range(len(arrays))]
        return T.mean_all(tape, op_builder(tape, leaves)), leaves

    tape = Tape()
    loss, leaves = build(tape, params)
    tape.backward(loss)
    grads = {str(i): (leaves[i].grad if leaves[i].grad is not None
                      else np.zeros_like(arrays[i])) for i in range(len(arrays))}

    def f():
        value, _ = build(None, params)
        return float(value.value)

    worst, _ = T.finite_difference_check(f, params, grads, eps=eps)
    return worst


def _builders(rng):
    """Op compositions and their operand arrays, keyed by case name."""
    v = rng.standard_normal
    return {
        "affine": (lambda t, l: T.affine(t, l[0], l[1], l[2]),
                   [v(3), v((4, 3)), v(4)]),
        "affine_rows": (lambda t, l: T.affine(t, l[0], l[1], l[2]),
                        [v((2, 5, 3)), v((4, 3)), v(4)]),
        "matvec_last": (lambda t, l: T.matvec_last(t, l[0], l[1]),
                        [v((5, 3)), v(3)]),
        "channel_scores": (lambda t, l: T.channel_scores(t, l[0], l[1], l[2]),
                           [v((1, 4)), v((1, 3)), v(3)]),
        "channel_scores_batch": (lambda t, l: T.channel_scores(t, l[0], l[1], l[2]),
                                 [v((2, 4)), v((2, 3)), v(3)]),
        "softmax": (lambda t, l: T.mul(t, T.softmax(t, l[0]), l[1]), [v(6), v(6)]),
        "mean_over_rows": (lambda t, l: T.mean_over_rows(t, l[0], np.full((1, 1), 4.0)),
                           [v((1, 4, 3))]),
        "weighted_row_sum": (lambda t, l: T.weighted_row_sum(t, l[0], l[1], np.full(1, 0.25)),
                             [v((1, 4, 3)), v((1, 4))]),
        "scale_rows": (lambda t, l: T.scale_rows(t, l[0], l[1]), [v((4, 3)), v(4)]),
        "add_vec": (lambda t, l: T.add_vec(t, l[0], l[1]), [v((4, 3)), v(3)]),
        "mul_vec": (lambda t, l: T.mul_vec(t, l[0], l[1]), [v((4, 3)), v(3)]),
        "add_scalar": (lambda t, l: T.add_scalar(t, l[0], l[1]), [v(5), v(())]),
        "mul": (lambda t, l: T.mul(t, l[0], l[1]), [v(5), v(5)]),
        "add": (lambda t, l: T.add(t, l[0], l[1]), [v(5), v(5)]),
        "tanh": (lambda t, l: T.tanh(t, l[0]), [v(5)]),
        "scale": (lambda t, l: T.scale(t, l[0], -1.7), [v(5)]),
        "cross_entropy": (lambda t, l: T.cross_entropy(t, l[0], np.array([2, 0])),
                          [v((2, 5))]),
        "embedding": (lambda t, l: T.embedding_lookup(t, l[0], np.array([1, 0, 1])),
                      [v((3, 4))]),
        # x (T, B, E), a non-zero h0 (B, H), the stacked (3H, E) input weight
        # and (3H,) bias, then U per gate; every row takes all three steps
        "gru": (lambda t, l: T.gru(t, T.affine(t, l[0], l[2], l[3]), l[1], [3, 3, 3],
                                   *l[4:]),
                [v((3, 3, 4)), v((3, 5)), v((15, 4)), v(15)] + [v((5, 5))] * 3),
        # the middle row takes no step and the last two: past its length a row's
        # state and gradient pass through, and its later steps of x get none
        "gru_masked": (lambda t, l: T.gru(t, T.affine(t, l[0], l[2], l[3]), l[1],
                                          [3, 0, 2], *l[4:]),
                       [v((3, 3, 4)), v((3, 5)), v((15, 4)), v(15)] + [v((5, 5))] * 3),
    }


@pytest.mark.parametrize("case", [
    "affine", "affine_rows", "matvec_last", "channel_scores", "channel_scores_batch",
    "softmax", "mean_over_rows",
    "weighted_row_sum", "scale_rows", "add_vec", "mul_vec", "add_scalar",
    "mul", "add", "tanh", "scale", "cross_entropy",
    "embedding", "gru", "gru_masked",
])
def test_primitive_gradients_match_finite_differences(case):
    builder, arrays = _builders(np.random.default_rng(hash(case) % 2**32))[case]
    assert _fd_for(builder, arrays) < 1e-7


def _primitives():
    """Names of the functions in ``tensor`` whose body calls ``_make``."""
    tree = ast.parse(inspect.getsource(T))
    return sorted(
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_make"
                for call in ast.walk(node)))


def test_every_primitive_is_used_by_the_package():
    package = pathlib.Path(T.__file__).parent
    callers = "".join(path.read_text() for path in sorted(package.glob("*.py"))
                      if path.name != "tensor.py")
    primitives = _primitives()
    assert "gru" in primitives and "cross_entropy" in primitives
    unused = [name for name in primitives
              if not re.search(rf"\bT\.{name}\(", callers)]
    assert unused == []


def test_region_mask_and_row_counts_have_no_default():
    # a default would let the unmasked, unbatched map back into attention
    takes_mask = {name: inspect.signature(fn).parameters["mask"]
                  for name, fn in inspect.getmembers(A, inspect.isfunction)
                  if fn.__module__ == A.__name__
                  and "mask" in inspect.signature(fn).parameters}
    assert {"channel_mean_pool", "spatial_attention", "apply_spatial_weights",
            "attend"} <= set(takes_mask)
    with_default = [name for name, param in takes_mask.items()
                    if param.default is not inspect.Parameter.empty]
    for fn, name in ((T.mean_over_rows, "counts"), (T.weighted_row_sum, "prefactor")):
        if inspect.signature(fn).parameters[name].default is not inspect.Parameter.empty:
            with_default.append(f"{fn.__name__}.{name}")
    assert with_default == []


# every gradient-check case ends in mean_all, the softmax case composes
# softmax with mul and the GRU cases feed the recurrence through affine, so
# these get single-op cases here; embedding_lookup's case is named "embedding"
_TAPELESS_CASES = {name: (lambda t, l, op=getattr(T, name): op(t, l[0]),
                          [np.linspace(-2.0, 3.0, 6)]) for name in ("softmax", "mean_all")}
_TAPELESS_CASES["gru"] = (
    lambda t, l: T.gru(t, l[0], l[1], [2, 0, 1], *l[2:]),
    [np.linspace(-2.0, 3.0, 90).reshape(2, 3, 15), np.linspace(-1.0, 1.0, 15).reshape(3, 5)]
    + [np.linspace(-0.5, 0.5, 25).reshape(5, 5)] * 3)
_CASE_OF = {"embedding_lookup": "embedding"}


@pytest.mark.parametrize("name", _primitives())
def test_tapeless_call_matches_taped_value_and_records_nothing(name):
    builder, arrays = (_TAPELESS_CASES.get(name)
                       or _builders(np.random.default_rng(5))[_CASE_OF.get(name, name)])
    tape = Tape()
    taped = builder(tape, [leaf(a) for a in arrays])
    assert len(tape) == 1 and tape._nodes[0] is taped and taped._backward is not None
    bare = builder(None, [leaf(a) for a in arrays])
    assert bare._backward is None
    assert bare.value.dtype == taped.value.dtype and bare.value.shape == taped.value.shape
    assert bare.value.tobytes() == taped.value.tobytes()


def test_composed_graph_gradient_accuracy():
    # a few hundred parameters through a nontrivial composition
    rng = np.random.default_rng(7)

    def builder(tape, l):
        hidden = T.tanh(tape, T.affine(tape, l[0], l[1], l[2]))
        weights = T.softmax(tape, T.affine(tape, hidden, l[3], l[4]))
        return T.cross_entropy(tape, T.mul(tape, weights, weights), np.array([1]))

    arrays = [rng.standard_normal((1, 8)), rng.standard_normal((10, 8)),
              rng.standard_normal(10), rng.standard_normal((6, 10)),
              rng.standard_normal(6)]
    assert _fd_for(builder, arrays, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# finite-difference checker contract


def test_fd_checker_quadratic_exact():
    x = {"x": np.array([3.0])}
    grads = {"x": np.array([6.0])}
    worst, per = T.finite_difference_check(lambda: float(x["x"][0] ** 2), x, grads,
                                           eps=1e-5)
    assert worst < 1e-8
    assert set(per) == {"x"}


def test_fd_checker_linear_roundoff():
    x = {"x": np.arange(4.0)}
    grads = {"x": np.full(4, 2.5)}
    worst, _ = T.finite_difference_check(lambda: float(2.5 * x["x"].sum()), x, grads)
    assert worst < 1e-9


def test_fd_checker_rejects_bad_eps():
    with pytest.raises(InvalidArgumentError):
        T.finite_difference_check(lambda: 0.0, {}, {}, eps=0.5)


def test_fd_checker_flags_wrong_gradient():
    x = {"x": np.array([2.0])}
    worst, _ = T.finite_difference_check(lambda: float(x["x"][0] ** 2), x,
                                         {"x": np.array([40.0])})
    assert worst > 1e-2
