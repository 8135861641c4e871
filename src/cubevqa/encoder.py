"""Question encoding: token embedding followed by a single-layer GRU.

A question is a sequence of vocabulary ids. Each id selects an embedding row,
the GRU folds the sequence left to right from a zero initial state, and the
final hidden state is the question encoding. The gating convention is

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    cand = tanh(W_h x + U_h (r * h) + b_h)
    h' = z * h + (1 - z) * cand

i.e. the update gate ``z`` keeps the previous state. Many GRU writeups swap
the roles of ``z`` and ``1 - z``; the two are equivalent up to relabeling,
but this module commits to the form above and the tests pin it.

The input terms ``W x + b`` of all three gates do not depend on the state, so
they are computed for every step at once, before the recurrence (Appleyard
et al. 2016): one embedding lookup over the ``(B, T)`` ids and one matmul
with the stacked ``(3H, E)`` input weight. The recurrence itself, which
adds the three per-gate products ``U h`` at each step, is one
``tensor.gru`` node over all steps.
"""

import numpy as np

from . import tensor as T
from .tensor import InvalidArgumentError


def project_inputs(tape, params, token_ids):
    """Every step's input projection ``W x_t + b`` of a ``(B, T)`` id array.

    Returns the step-major ``(T, B, 3H)`` node ``tensor.gru`` reads. It
    depends on the tokens alone, not on the state, so one embedding lookup and
    one matmul over all ``B * T`` tokens compute it ahead of the recurrence.
    """
    return T.affine(tape, T.embedding_lookup(tape, params.embed, token_ids.T),
                    params.w_input, params.b_input)


def encode_questions_batch(tape, params, token_ids, lengths):
    """Encode a batch of questions of varying true lengths.

    ``token_ids`` is ``(B, T_max)`` padded arbitrarily past each question's
    length; ``lengths`` gives the true length per row. The recurrence runs for
    ``T_max`` steps, and a row whose question has ended carries its state
    forward unchanged, so the returned ``(B, H)`` state is each question's
    final state and padding never influences it. One question is a batch of
    one. Records 3 tape nodes: the embedding lookup, the input projection of
    every step and the whole recurrence.

    ``params`` holds the embedding table ``embed`` (vocab x E); the stacked
    input projection ``w_input`` (3H x E) and ``b_input`` (3H), whose
    consecutive row blocks are the input weights ``W_z, W_r, W_h`` and biases
    ``b_z, b_r, b_h`` of the update, reset and candidate gates; and the
    (H x H) recurrent weights ``u_update``, ``u_reset`` and ``u_cand``.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2:
        raise InvalidArgumentError(f"expected (B, T) token ids, got shape {ids.shape}")
    batch, t_max = ids.shape
    if lengths.shape != (batch,) or (lengths < 1).any() or (lengths > t_max).any():
        raise InvalidArgumentError("lengths must be in [1, T_max] for every example")
    x_proj = project_inputs(tape, params, ids)
    h0 = T.constant(np.zeros((batch, params.u_update.value.shape[0])))
    return T.gru(tape, x_proj, h0, lengths, params.u_update, params.u_reset, params.u_cand)
