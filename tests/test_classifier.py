"""Answer prediction head and its loss."""

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import cubevqa.classifier as C
import cubevqa.tensor as T
from cubevqa.tensor import InvalidArgumentError, Tape, Tensor


def params(d=6, hidden=5, fused=4, answers=3, seed=0, zero=False):
    rng = np.random.default_rng(seed)

    def init(shape):
        return Tensor(np.zeros(shape) if zero else rng.uniform(-0.5, 0.5, shape))

    return SimpleNamespace(
        w_visual=init((fused, d)), w_question=init((fused, hidden)),
        b_hidden=init((fused,)), w_out=init((answers, fused)), b_out=init((answers,)))


def answer_probabilities(visual, question, p):
    """Evaluation-mode softmax over the answers; ``evaluate`` predicts its argmax."""
    return T.softmax(None, C.answer_scores(None, visual, question, p)).value


def test_zero_params_uniform_distribution():
    p = params(zero=True)
    rng = np.random.default_rng(1)
    probs = answer_probabilities(Tensor(rng.standard_normal((1, 6))),
                                 Tensor(rng.standard_normal((1, 5))), p)
    npt.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-15)
    assert np.argmax(probs, axis=-1)[0] == 0  # tie resolves to the lowest index


def test_output_bias_concentrates_probability():
    p = params(answers=100, zero=True)
    p.b_out.value[0] = 10.0
    probs = answer_probabilities(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 5))), p)
    assert probs[0, 0] > 0.99
    assert np.argmax(probs, axis=-1)[0] == 0


def test_full_scale_answer_vocabulary():
    p = params(d=8, hidden=5, fused=4, answers=2000, seed=2)
    probs = answer_probabilities(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 5))), p)
    assert probs.shape == (1, 2000)
    npt.assert_allclose(probs.sum(), 1.0, atol=1e-9)


def test_argmax_shift_invariant():
    p = params(seed=3)
    rng = np.random.default_rng(4)
    visual, question = Tensor(rng.standard_normal(6)), Tensor(rng.standard_normal(5))
    scores = C.answer_scores(None, visual, question, p)
    base = int(np.argmax(scores.value))
    shifted = scores.value + 123.456
    assert int(np.argmax(shifted)) == base


def zero_inputs():
    """An all-zero visual (1, 6) and question (1, 5): a batch of one."""
    return Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 5)))


def test_loss_values():
    p = params(zero=True)
    scores = C.answer_scores(None, *zero_inputs(), p)
    npt.assert_allclose(float(C.answer_loss(None, scores, [1]).value[0]),
                        math.log(3.0), atol=1e-12)


def test_loss_zero_iff_concentrated():
    p = params(answers=4, zero=True)
    p.b_out.value[2] = 50.0
    scores = C.answer_scores(None, *zero_inputs(), p)
    assert float(C.answer_loss(None, scores, [2]).value[0]) < 1e-12
    assert float(C.answer_loss(None, scores, [0]).value[0]) > 1.0


def test_loss_label_out_of_range():
    p = params()
    scores = C.answer_scores(None, *zero_inputs(), p)
    with pytest.raises(InvalidArgumentError):
        C.answer_loss(None, scores, [3])


def test_loss_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(7)
    tape = Tape()
    scores = Tensor(raw[None])
    loss = T.mean_all(tape, T.cross_entropy(tape, scores, [4]))
    tape.backward(loss)
    e = np.exp(raw - raw.max())
    probs = e / e.sum()
    onehot = np.zeros(7)
    onehot[4] = 1.0
    npt.assert_allclose(scores.grad[0], probs - onehot, atol=1e-12)


def test_classifier_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    visual_val = rng.standard_normal((1, 6))
    question_val = rng.standard_normal((1, 5))
    arrays = {name: getattr(params(seed=7), name).value
              for name in ("w_visual", "w_question", "b_hidden", "w_out", "b_out")}

    def build(tape):
        p = SimpleNamespace(**{name: Tensor(arrays[name]) for name in arrays})
        scores = C.answer_scores(tape, Tensor(visual_val), Tensor(question_val), p)
        return T.mean_all(tape, C.answer_loss(tape, scores, [2])), p

    tape = Tape()
    loss, p = build(tape)
    tape.backward(loss)
    grads = {name: getattr(p, name).grad for name in arrays}
    worst, _ = T.finite_difference_check(lambda: float(build(None)[0].value),
                                         arrays, grads, eps=1e-5)
    assert worst < 1e-4


def test_dropout_mask_gates_hidden_layer():
    p = params(seed=8)
    rng = np.random.default_rng(9)
    visual, question = Tensor(rng.standard_normal(6)), Tensor(rng.standard_normal(5))
    mask = Tensor(np.array([2.0, 0.0, 2.0, 0.0]))
    gated = C.answer_scores(None, visual, question, p, dropout_mask=mask)
    plain = C.answer_scores(None, visual, question, p)
    assert np.max(np.abs(gated.value - plain.value)) > 1e-9