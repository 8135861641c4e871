"""Question encoding: embedding lookup and the GRU recurrence."""

import threading
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa.encoder as E
import cubevqa.tensor as T
from cubevqa.tensor import (InvalidArgumentError, ShapeError, Tape, Tensor,
                            VocabularyError)
from helpers import encoder_params_as_lists, naive_encode, naive_gru_step


ENCODER_PARAMS = ("embed", "w_update", "u_update", "b_update", "w_reset", "u_reset",
                  "b_reset", "w_cand", "u_cand", "b_cand")


def _gate_view(stacked, index):
    """A property reading gate ``index``'s block of a stacked leaf as a leaf."""

    def view(self):
        full = getattr(self, stacked)
        hidden = self.u_update.value.shape[0]
        rows = slice(index * hidden, (index + 1) * hidden)
        block = Tensor(full.value[rows])
        block.grad = None if full.grad is None else full.grad[rows]
        return block

    return property(view)


class GateParams(SimpleNamespace):
    """Encoder parameters whose stacked input weights and biases also read as
    per-gate views, under the names the scalar oracle and the parameter store
    use. A view's ``grad`` is its block of the stacked gradient."""

    w_update, w_reset, w_cand = (_gate_view("w_input", i) for i in range(3))
    b_update, b_reset, b_cand = (_gate_view("b_input", i) for i in range(3))


def make_params(vocab=7, embed=4, hidden=5, seed=0, zero=False):
    rng = np.random.default_rng(seed)

    def init(shape):
        return np.zeros(shape) if zero else rng.uniform(-0.5, 0.5, shape)

    table = init((vocab, embed))
    gates = {}
    for gate in ("update", "reset", "cand"):
        gates[gate] = (init((hidden, embed)), init((hidden, hidden)), init((hidden,)))
    return GateParams(
        embed=Tensor(table),
        w_input=Tensor(np.concatenate([w for w, _, _ in gates.values()])),
        b_input=Tensor(np.concatenate([b for _, _, b in gates.values()])),
        u_update=Tensor(gates["update"][1]), u_reset=Tensor(gates["reset"][1]),
        u_cand=Tensor(gates["cand"][1]))


def encode(tape, params, tokens):
    """One question encoded as a batch of one; returns the (1, H) state node."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return E.encode_questions_batch(tape, params, tokens[None], [tokens.size])


def run_gru(params, x_proj, h0, lengths):
    """``tensor.gru`` with the encoder's recurrent weights, tapeless."""
    return T.gru(None, x_proj, h0, lengths, params.u_update, params.u_reset, params.u_cand)


def cell(params, x, h, active):
    """One GRU step of input rows ``x`` (B, E) from states ``h`` (B, H), as a
    one-step ``gru`` run through the input projection as the encoder computes
    it; a row outside the ``(B,)`` mask ``active`` takes no step."""
    x_proj = T.affine(None, Tensor(np.asarray(x)[None]), params.w_input, params.b_input)
    return run_gru(params, x_proj, Tensor(h), np.asarray(active, dtype=np.int64))


def step(params, x, h):
    """One GRU step of single rows ``x`` (E,) and ``h`` (H,) as a batch of one."""
    return cell(params, x[None], h[None], [True])


# ---------------------------------------------------------------------------
# embedding


def test_embed_identity_table_selects_basis_vector():
    params = make_params(vocab=4, embed=4, zero=True)
    params.embed.value[...] = np.eye(4)
    vecs = T.embedding_lookup(None, params.embed, np.array([0, 2])).value
    npt.assert_array_equal(vecs[0], [1, 0, 0, 0])
    npt.assert_array_equal(vecs[1], [0, 0, 1, 0])


def test_embed_repeated_token_identical():
    params = make_params()
    a, b = T.embedding_lookup(None, params.embed, np.array([3, 3])).value
    npt.assert_array_equal(a, b)


def test_embed_matches_onehot_matrix_product():
    params = make_params(vocab=9, embed=6, seed=1)
    table = params.embed.value
    for token in range(9):
        onehot = np.zeros(9)
        onehot[token] = 1.0
        expected = table.T @ onehot
        npt.assert_allclose(T.embedding_lookup(None, params.embed, np.array([token])).value[0],
                            expected, atol=1e-15)


# ---------------------------------------------------------------------------
# one GRU step: a one-step gru run from a given state


def test_gru_step_all_zero_params():
    params = make_params(zero=True)
    out = step(params, np.zeros(4), np.zeros(5))
    npt.assert_array_equal(out.value, np.zeros((1, 5)))


def test_gru_step_rejects_mismatched_state():
    params = make_params()
    x_proj, h = Tensor(np.zeros((3, 2, 15))), Tensor(np.zeros((2, 5)))
    lengths = np.ones(2, dtype=np.int64)
    with pytest.raises(ShapeError):
        run_gru(params, x_proj, Tensor(np.zeros((1, 5))), lengths)
    with pytest.raises(ShapeError):
        run_gru(params, Tensor(np.zeros((3, 2, 12))), h, lengths)
    with pytest.raises(ShapeError):
        run_gru(params, x_proj, h, lengths[:1])
    with pytest.raises(ShapeError):  # a step the projection does not hold
        run_gru(params, x_proj, h, np.array([1, 4]))
    with pytest.raises(ShapeError):  # the batch axis is required
        run_gru(params, Tensor(np.zeros((3, 15))), Tensor(np.zeros(5)), lengths[:1])


def test_gru_step_update_gate_keeps_previous_state():
    # a large update-gate bias drives z to 1, freezing h
    params = make_params(seed=2)
    params.b_update.value[...] = 20.0
    rng = np.random.default_rng(3)
    h_prev = rng.uniform(-1, 1, 5)
    out = step(params, rng.uniform(-1, 1, 4), h_prev)
    npt.assert_allclose(out.value[0], h_prev, atol=1e-6)


def test_gru_step_inactive_rows_carry_state():
    params = make_params(seed=20)
    rng = np.random.default_rng(21)
    x, h = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 5))
    full = cell(params, x, h, np.ones(3, dtype=bool))
    out = cell(params, x, h, np.array([True, False, True]))
    npt.assert_array_equal(out.value[[0, 2]], full.value[[0, 2]])
    npt.assert_array_equal(out.value[1], h[1])


def test_gru_step_matches_scalar_loop():
    params = make_params(seed=4)
    plists = encoder_params_as_lists(params)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2, 2, 4)
        h = rng.uniform(-1, 1, 5)
        expected = naive_gru_step(x.tolist(), h.tolist(), plists)
        out = step(params, x, h)
        npt.assert_allclose(out.value[0], expected, atol=1e-12)


def test_gru_gates_strictly_inside_unit_interval():
    # strict interior holds while pre-activations stay below the ~36.7
    # double-precision saturation point of the sigmoid
    params = make_params(seed=6)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = Tensor(rng.uniform(-5, 5, 4))
        h = Tensor(rng.uniform(-1, 1, 5))
        z = T._sigmoid(T.add(None,
                             T.affine(None, x, params.w_update, params.b_update),
                             T.affine(None, h, params.u_update)).value)
        assert np.all(z > 0) and np.all(z < 1)


def test_gru_state_bounded_by_convex_combination():
    params = make_params(seed=8)
    rng = np.random.default_rng(9)
    h = Tensor(rng.uniform(-0.9, 0.9, (1, 5)))
    for _ in range(30):
        h = cell(params, rng.uniform(-3, 3, (1, 4)), h.value, [True])
        assert np.max(np.abs(h.value)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# encoding one question (a batch of one)


def test_encode_single_token_is_one_step_from_zero():
    params = make_params(seed=10)
    one = encode(None, params, [3])
    x_proj = E.project_inputs(None, params, np.array([[3]]))
    first = run_gru(params, x_proj, Tensor(np.zeros((1, 5))), [1])
    npt.assert_array_equal(one.value, first.value)


def test_encode_zero_params_gives_zero_for_any_tokens():
    params = make_params(zero=True)
    for tokens in ([0], [1, 2, 3], [4] * 6):
        npt.assert_array_equal(encode(None, params, tokens).value, np.zeros((1, 5)))


def test_encode_question_order_sensitivity():
    params = make_params(seed=11)
    a = encode(None, params, [1, 2, 3])
    b = encode(None, params, [3, 2, 1])
    assert np.max(np.abs(a.value - b.value)) > 1e-6


def test_encode_question_deterministic():
    params = make_params(seed=12)
    a = encode(None, params, [5, 1, 4])
    b = encode(None, params, [5, 1, 4])
    npt.assert_array_equal(a.value, b.value)


def test_encode_question_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        encode(None, make_params(), [])


def test_encode_matches_scalar_loop_oracle():
    params = make_params(seed=13)
    plists = encoder_params_as_lists(params)
    embed = params.embed.value.tolist()
    rng = np.random.default_rng(14)
    for _ in range(5):
        tokens = rng.integers(0, 7, size=int(rng.integers(1, 9)))
        expected = naive_encode(tokens, embed, plists, hidden=5)
        out = encode(None, params, tokens)
        npt.assert_allclose(out.value[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# batched encoding


def test_batched_encoding_matches_per_example():
    params = make_params(seed=15)
    rng = np.random.default_rng(16)
    lengths = np.array([1, 4, 2, 6, 3])
    t_max = int(lengths.max())
    ids = np.zeros((5, t_max), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ids[i, :ln] = rng.integers(0, 7, size=ln)
        ids[i, ln:] = rng.integers(0, 7, size=t_max - ln)  # junk padding
    batched = E.encode_questions_batch(None, params, ids, lengths)
    for i, ln in enumerate(lengths):
        single = encode(None, params, ids[i, :ln])
        npt.assert_allclose(batched.value[i], single.value[0], atol=1e-12)


def test_batched_encoding_gradients_match_per_example():
    params = make_params(vocab=5, embed=3, hidden=4, seed=17)
    ids = np.array([[1, 2, 0], [3, 0, 0]])
    lengths = np.array([3, 1])

    tape = Tape()
    enc = E.encode_questions_batch(tape, params, ids, lengths)
    loss = T.mean_all(tape, T.mul(tape, enc, enc))
    tape.backward(loss)
    batched_grads = {name: getattr(params, name).grad.copy() for name in ENCODER_PARAMS}

    fresh = make_params(vocab=5, embed=3, hidden=4, seed=17)
    tape = Tape()
    total = None
    for i in range(2):
        q = encode(tape, fresh, ids[i, :lengths[i]])
        sq = T.mul(tape, q, q)
        part = T.scale(tape, T.mean_all(tape, sq), 0.5)
        total = part if total is None else T.add(tape, total, part)
    tape.backward(total)
    for name in ENCODER_PARAMS:
        npt.assert_allclose(batched_grads[name], getattr(fresh, name).grad,
                            atol=1e-12, err_msg=name)


def test_batched_encoder_records_one_gru_node():
    params = make_params(seed=19)
    ids = np.array([[1, 2, 3, 4, 5], [6, 5, 4, 0, 0]])
    tape = Tape()
    E.encode_questions_batch(tape, params, ids, np.array([5, 3]))
    # the embedding lookup and input projection of all steps, then the whole
    # recurrence, whatever the number of steps
    assert len(tape) == 3


@pytest.fixture
def gates_beside(monkeypatch):
    """Every GRU step runs its update gate on a second thread; returns the
    list of threads started."""
    if T._BLAS is None:
        pytest.skip("numpy's bundled OpenBLAS is not reachable: the gates stay serial")
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(T, "GATE_MIN_WORK", 0)
    monkeypatch.setattr(T, "USABLE_CORES", 2)
    monkeypatch.setattr(T.threading, "Thread", Counted)
    return started


def test_gates_beside_the_chain_match_scalar_loop_oracle(gates_beside):
    params = make_params(seed=22)
    plists = encoder_params_as_lists(params)
    embed = params.embed.value.tolist()
    rng = np.random.default_rng(23)
    lengths = np.array([3, 1, 5, 2])
    ids = rng.integers(0, 7, size=(4, 5))
    out = E.encode_questions_batch(None, params, ids, lengths)
    assert len(gates_beside) == 5
    for row, length in enumerate(lengths):
        expected = naive_encode(ids[row, :length], embed, plists, hidden=5)
        npt.assert_allclose(out.value[row], expected, rtol=0, atol=1e-10)


def test_gates_beside_the_chain_match_finite_differences(gates_beside):
    params = make_params(vocab=6, embed=4, hidden=5, seed=24)
    ids, lengths = np.array([[2, 5, 1, 4], [3, 1, 0, 0], [5, 0, 0, 0]]), np.array([4, 2, 1])
    arrays = {name: getattr(params, name).value for name in ENCODER_PARAMS}

    def build(tape):
        q = E.encode_questions_batch(tape, params, ids, lengths)
        return T.mean_all(tape, T.mul(tape, q, q))

    tape = Tape()
    tape.backward(build(tape))
    assert len(gates_beside) == 2 * 4
    grads = {name: getattr(params, name).grad for name in arrays}
    worst, _ = T.finite_difference_check(lambda: float(build(None).value),
                                         arrays, grads, eps=1e-5)
    assert worst < 1e-4


def test_encoder_gradients_match_finite_differences():
    params = make_params(vocab=6, embed=4, hidden=5, seed=18)
    tokens = np.array([2, 5, 1, 4])
    arrays = {name: getattr(params, name).value for name in ENCODER_PARAMS}

    def build(tape):
        q = encode(tape, params, tokens)
        return T.mean_all(tape, T.mul(tape, q, q))

    tape = Tape()
    loss = build(tape)
    tape.backward(loss)
    grads = {name: (getattr(params, name).grad if getattr(params, name).grad is not None
                    else np.zeros_like(arrays[name])) for name in arrays}
    worst, _ = T.finite_difference_check(lambda: float(build(None).value),
                                         arrays, grads, eps=1e-5)
    assert worst < 1e-4
