"""Numpy reference for the checks, written from the README and module docstrings.

It recomputes, one example at a time and without the program's tape or
batched code:

* the GRU question encoder (``encoder`` docstring: ``z`` keeps the state);
* channel attention over the per-channel means, region attention in both
  scorer forms (question inside or outside the tanh) and both gain forms
  (mean-one gains ``1 + s(D*beta - 1)`` or raw ``beta``);
* the four pipelines ``ca``, ``ra``, ``cva`` and ``cva-v``;
* the fusion classifier and the cross-entropy loss;
* consensus accuracy and thresholded Wu-Palmer scores.

Parameters are read only as ``store[name].value``, so the same code reads a
live ``ParameterStore`` or the arrays of a checkpoint parsed by
``read_checkpoint``.
"""

import struct

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def cross_entropy(scores, label):
    top = scores.max()
    return float(top + np.log(np.exp(scores - top).sum()) - scores[label])


class Reference:
    """Forward pass and loss of one model, read from ``store``.

    ``config`` supplies the architecture switches: ``variant``,
    ``hidden_dim``, ``tanh_after_sum``, ``rescale_channel_gains`` and
    ``channel_gain_strength``.
    """

    def __init__(self, store, config):
        self.store = store
        self.config = config

    def p(self, name):
        return self.store[name].value

    def encode(self, token_ids):
        p = self.p
        h = np.zeros(self.config.hidden_dim)
        for token in token_ids:
            x = p("enc.embed")[int(token)]
            z = sigmoid(p("enc.w_update") @ x + p("enc.u_update") @ h + p("enc.b_update"))
            r = sigmoid(p("enc.w_reset") @ x + p("enc.u_reset") @ h + p("enc.b_reset"))
            cand = np.tanh(p("enc.w_cand") @ x + p("enc.u_cand") @ (r * h) + p("enc.b_cand"))
            h = z * h + (1.0 - z) * cand
        return h

    def channel_weights(self, feature_map, q):
        p = self.p
        vis = feature_map.mean(axis=0) * p("chan.vis_scale") + p("chan.vis_shift")
        query = p("chan.w_question") @ q + p("chan.b_question")
        joint = np.tanh(vis[:, None] * query[None, :])
        return softmax(joint @ p("chan.w_score") + p("chan.b_score"))

    def gains(self, beta):
        if not self.config.rescale_channel_gains:
            return beta
        s = self.config.channel_gain_strength
        return 1.0 + s * (beta.size * beta - 1.0)

    def region_weights(self, feature_map, q):
        p = self.p
        vis = feature_map @ p("spat.w_visual").T + p("spat.b_visual")
        query = p("spat.w_question") @ q + p("spat.b_question")
        if self.config.tanh_after_sum:
            joint = np.tanh(vis + query)
        else:
            joint = np.tanh(vis) + query
        return softmax(joint @ p("spat.w_score") + p("spat.b_score"))

    def attend(self, feature_map, q):
        """Attended (D,) vector of the configured pipeline."""
        v = np.asarray(feature_map, dtype=np.float64)
        k = v.shape[0]
        variant = self.config.variant
        if variant == "ra":
            return self.region_weights(v, q) @ v / k
        if variant == "cva-v":
            v = self.region_weights(v, q)[:, None] * v
            return (v * self.gains(self.channel_weights(v, q))).mean(axis=0)
        v = v * self.gains(self.channel_weights(v, q))
        if variant == "ca":
            return v.mean(axis=0)
        return self.region_weights(v, q) @ v / k

    def scores(self, feature_map, token_ids):
        """Pre-softmax answer scores of one example (no dropout)."""
        p = self.p
        q = self.encode(token_ids)
        hidden = np.tanh(p("clf.w_visual") @ self.attend(feature_map, q)
                         + p("clf.w_question") @ q + p("clf.b_hidden"))
        return p("clf.w_out") @ hidden + p("clf.b_out")

    def loss(self, feature_map, token_ids, label):
        return cross_entropy(self.scores(feature_map, token_ids), int(label))

    def mean_loss(self, examples):
        """Mean loss over ``(features, token_ids, label)`` triples."""
        return sum(self.loss(*ex) for ex in examples) / len(examples)


# ---------------------------------------------------------------------------
# checkpoints


class _Entry:
    def __init__(self, value):
        self.value = value


def read_checkpoint(path):
    """Parameter values of a ``CVAC`` checkpoint as ``{name: entry}``.

    Layout (``training`` docstring): magic, u32 version, u32 count, then the
    value section's entries ``u16 name length, name, u8 rank, u32 dims,
    f8 payload``; the moment sections and the step counter follow.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CVAC":
        raise ValueError(f"{path}: not a CVAC checkpoint")
    count = struct.unpack_from("<I", blob, 8)[0]
    offset = 12
    entries = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2:offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        rank = blob[offset]
        shape = struct.unpack_from(f"<{rank}I", blob, offset + 1)
        offset += 1 + 4 * rank
        size = int(np.prod(shape)) if shape else 1
        entries[name] = _Entry(np.frombuffer(blob, "<f8", size, offset).reshape(shape)
                               .astype(np.float64))
        offset += 8 * size
    return entries


# ---------------------------------------------------------------------------
# scoring


def normalize(answer):
    return " ".join(answer.lower().split())


def consensus(predicted, humans):
    target = normalize(predicted)
    return min(sum(normalize(h) == target for h in humans) / 3.0, 1.0)


class Tree:
    """A ``parent<TAB>child`` taxonomy with the root at depth 1."""

    def __init__(self, edges):
        self.parent = {normalize(c): normalize(p) for p, c in edges}

    def chain(self, term):
        out = [term]
        while out[-1] in self.parent:
            out.append(self.parent[out[-1]])
        return out

    def depth(self, term):
        return len(self.chain(term))

    def __contains__(self, term):
        return term in self.parent or term in self.parent.values()

    def wup(self, a, b):
        a, b = normalize(a), normalize(b)
        if a not in self or b not in self:
            return 1.0 if a == b else 0.0
        up_b = self.chain(b)
        lca = next(t for t in self.chain(a) if t in up_b)
        return 2.0 * self.depth(lca) / (self.depth(a) + self.depth(b))

    def wups(self, predictions, truths, threshold):
        total = 0.0
        for pred, truth in zip(predictions, truths):
            s = self.wup(pred, truth)
            total += s if s >= threshold else 0.1 * s
        return total / len(predictions)
