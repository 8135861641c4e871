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
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import InvalidArgumentError, Tensor, VocabularyError


@dataclass
class EncoderParams:
    """Embedding table plus the three GRU gate parameter triples.

    ``embed`` is (vocab, E); the ``w_*`` matrices are (H, E), the ``u_*``
    matrices (H, H), and the biases (H,).
    """

    embed: Tensor
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor


def validate_tokens(token_ids, vocab_size, max_len):
    """Check a token-id sequence against the vocabulary and length limits."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise InvalidArgumentError("question must be a nonempty 1-d sequence of token ids")
    if ids.size > max_len:
        raise InvalidArgumentError(
            f"question length {ids.size} exceeds configured maximum {max_len}")
    bad = np.where((ids < 0) | (ids >= vocab_size))[0]
    if bad.size:
        raise VocabularyError(
            f"token id {int(ids[bad[0]])} at position {int(bad[0])} outside "
            f"vocabulary of size {vocab_size}")
    return ids


def gru_step(tape, params, x_t, h_prev, active):
    """One GRU update of a batch ``(B, E)/(B, H)``; rows outside the ``(B,)``
    mask ``active`` keep their state.

    Records a single tape node (``tensor.gru_cell``) per time step.
    """
    return T.gru_cell(tape, x_t, h_prev, active,
                      params.w_update, params.u_update, params.b_update,
                      params.w_reset, params.u_reset, params.b_reset,
                      params.w_cand, params.u_cand, params.b_cand)


def encode_questions_batch(tape, params, token_ids, lengths):
    """Encode a batch of questions of varying true lengths.

    ``token_ids`` is ``(B, T_max)`` padded arbitrarily past each question's
    length; ``lengths`` gives the true length per row. The recurrence runs for
    ``T_max`` steps, and a row whose question has ended carries its state
    forward unchanged, so the returned ``(B, H)`` state is each question's
    final state and padding never influences it. One question is a batch of
    one. Records two tape nodes per step: the embedding lookup and the cell.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2:
        raise InvalidArgumentError(f"expected (B, T) token ids, got shape {ids.shape}")
    batch, t_max = ids.shape
    if lengths.shape != (batch,) or (lengths < 1).any() or (lengths > t_max).any():
        raise InvalidArgumentError("lengths must be in [1, T_max] for every example")
    hidden = params.b_update.value.shape[0]
    h = T.constant(np.zeros((batch, hidden)))
    for t in range(t_max):
        x_t = T.embedding_lookup(tape, params.embed, ids[:, t])
        h = gru_step(tape, params, x_t, h, lengths > t)
    return h
