"""Answer prediction: fuse attended visual features with the question.

A single hidden layer combines the two inputs, and a linear layer over the
answer vocabulary produces pre-softmax scores. The training loss is the
cross-entropy of the true answer under those scores, computed in fused
log-sum-exp form so that large vocabularies cannot overflow.
"""

from . import tensor as T


def answer_scores(tape, visual, question, params, dropout_mask=None):
    """Pre-softmax answer scores; ``dropout_mask`` gates the hidden layer.

    ``dropout_mask`` is an already-scaled keep mask (inverted dropout) and is
    only supplied in training mode. ``params`` holds ``w_visual`` (H_f x D)
    and ``w_question`` (H_f x H), which project the two inputs; ``b_hidden``
    (H_f), which biases the fused hidden layer; and ``w_out`` (A x H_f) with
    ``b_out`` (A), which produce the answer scores.
    """
    hidden = T.tanh(tape, T.add(tape,
                                T.affine(tape, visual, params.w_visual),
                                T.affine(tape, question, params.w_question,
                                         params.b_hidden)))
    if dropout_mask is not None:
        hidden = T.mul(tape, hidden, dropout_mask)
    return T.affine(tape, hidden, params.w_out, params.b_out)


def answer_loss(tape, scores, labels):
    """Per-example cross-entropy of the labeled answers: ``(B, A)`` scores
    and ``(B,)`` labels give a ``(B,)`` loss vector."""
    return T.cross_entropy(tape, scores, labels)
