"""Channel and region attention over object-region feature maps.

The visual input is a batch of feature maps ``V`` of shape ``(B, K, D)``:
``K`` detected object regions per image, each described by ``D`` feature
channels; a single image is a batch of one. Two attention mechanisms
condition on a question encoding ``Q`` of shape ``(B, H)``:

* channel attention produces a distribution ``beta`` over the ``D`` channels,
  computed from the per-channel mean of the map (so it is invariant to the
  order of regions);
* spatial attention produces a distribution ``eta`` over the ``K`` regions
  (equivariant to region order).

One pipeline, ``attend``, composes them in a given order of stages:
channel-then-spatial stacking, the reversed stacking, or either stage alone
for the single-attention ablations. It returns ``(attended, beta, eta)``,
the ``(B, D)`` attended vector and the two distributions, ``None`` for a
stage the order lacks.

Examples in a batch may have different region counts. The map is then
zero-padded to the largest count, and every function that reads the region
axis takes the map's ``RegionMask``, built once per batch from the true
counts: the region softmax gives rows past an example's count weight 0, and
region means and the ``1/K`` prefactor divide by the example's own count.
A map and its mask always travel together; with all counts equal to K every
result is bit for bit the unpadded one.
"""

import numpy as np

from . import tensor as T


class RegionMask:
    """The real rows of a zero-padded ``(B, K, D)`` map, from ``(B,)`` counts.

    ``valid`` ``(B, K)`` marks rows ``k < counts[b]`` for the region softmax,
    ``counts`` ``(B, 1)`` divides each example's region sum into its mean,
    and ``inverse`` ``(B,)`` is each example's ``1/K`` prefactor.
    """

    def __init__(self, counts, k):
        counts = np.asarray(counts, dtype=np.float64)
        self.valid = np.arange(k) < counts[:, None]
        self.counts = counts[:, None]
        self.inverse = 1.0 / counts


def channel_mean_pool(tape, feature_map, mask):
    """Per-channel mean over each example's regions: ``(B, K, D) -> (B, D)``."""
    return T.mean_over_rows(tape, feature_map, mask.counts)


def channel_attention(tape, channel_means, question, params):
    """Score every channel against the question and normalize.

    The channel means are embedded elementwise and the question is projected
    to the attention space. Their products squashed with tanh define a joint
    (D, h_a) map, ``tanh(vis[d] * query[j])``, and each channel's row of it is
    reduced to a scalar score with ``w_score``. ``tensor.channel_scores``
    computes the scores tile by tile, so the joint map is defined but never
    materialized. Softmax over the D scores yields the channel weights.

    ``params`` holds ``vis_scale`` and ``vis_shift`` (both D), which embed the
    channel-mean vector elementwise; ``w_question`` (h_a x H) and
    ``b_question`` (h_a), which project the question into the attention
    space; and ``w_score`` (h_a) with the scalar ``b_score``, which reduce
    each channel's row of the joint map to one score.
    """
    vis = T.add_vec(tape, T.mul_vec(tape, channel_means, params.vis_scale),
                    params.vis_shift)
    query = T.affine(tape, question, params.w_question, params.b_question)
    scores = T.add_scalar(tape, T.channel_scores(tape, vis, query, params.w_score),
                          params.b_score)
    return T.softmax(tape, scores)


# Contrast of the rescaled channel gains: g = 1 + s * (D*beta - 1). At the
# default the gains hover near one, floored at 1 - s, so the softmax's
# zero-sum coupling can never starve a channel block outright.
DEFAULT_GAIN_STRENGTH = 0.1


def _channel_gains(tape, channel_weights, rescale, strength=DEFAULT_GAIN_STRENGTH):
    """Modulation gains from the channel distribution.

    The distribution sums to one over D channels, so multiplying by it
    directly shrinks every feature by ~1/D; stacked on top of the region
    scorer's tanh that collapses it into its linear regime, where softmax
    shift-invariance erases the question signal and the region stage cannot
    train. ``rescale=True`` therefore remaps the weights to mean-one gains
    ``1 + strength * (D*beta - 1)``: uniform attention passes the map
    through unchanged, selection contrast scales with ``strength``, and no
    channel's gain falls below ``1 - strength`` (full-strength gains let the
    modulation starve whichever channels the classifier does not favor,
    which freezes the downstream region scorer; selection stays decisive
    for the classifier at small strengths because softmax contrast is
    already resolved there). ``False`` restores the literal modulation.
    """
    if not rescale:
        return channel_weights
    d = channel_weights.value.shape[-1]
    scaled = T.scale(tape, channel_weights, strength * d)
    return T.add(tape, scaled,
                 T.constant(np.full(scaled.value.shape, 1.0 - strength)))


def spatial_attention(tape, feature_map, mask, question, params,
                      tanh_after_sum=False):
    """Score every region against the question and normalize over each
    example's real regions (padded regions get weight 0).

    With ``tanh_after_sum=False`` the visual term alone is squashed and the
    projected question is then added to every region row:

        a_k = tanh(W_v v_k + b_v) + (W_q Q + b_q)

    Because softmax is shift-invariant, the added question term cancels and
    the weights depend on the map only. ``tanh_after_sum=True`` moves the
    question inside the squash,

        a_k = tanh(W_v v_k + b_v + W_q Q + b_q)

    which lets the question reorder the region scores; trained models default
    to this form (see ``model.ModelConfig``).

    ``params`` holds ``w_visual`` (h_a x D) and ``b_visual`` (h_a), which
    embed each region vector; ``w_question`` (h_a x H) and ``b_question``,
    which embed the question; and ``w_score`` (h_a) with the scalar
    ``b_score``, which reduce each region's joint vector to one score.
    """
    vis = T.affine(tape, feature_map, params.w_visual, params.b_visual)
    query = T.affine(tape, question, params.w_question, params.b_question)
    if tanh_after_sum:
        joint = T.tanh(tape, T.add_vec(tape, vis, query))
    else:
        joint = T.add_vec(tape, T.tanh(tape, vis), query)
    scores = T.add_scalar(tape, T.matvec_last(tape, joint, params.w_score),
                          params.b_score)
    return T.softmax(tape, scores, mask.valid)


def apply_spatial_weights(tape, spatial_weights, feature_map, mask):
    """Aggregate regions as ``(1/K) * sum_k eta[k] * v_k``, with K each
    example's own region count.

    The 1/K prefactor is kept deliberately, so that injecting all-ones
    weights reproduces the plain per-channel mean; downstream affine layers
    absorb the constant scale.
    """
    return T.weighted_row_sum(tape, feature_map, spatial_weights, mask.inverse)


def attend(tape, order, feature_map, mask, question, channel_params, spatial_params,
           tanh_after_sum=False, rescale_channel_gains=True,
           gain_strength=DEFAULT_GAIN_STRENGTH):
    """Run the stages ``order`` names (``"chan"``, ``"spat"``) over the map.

    A ``"chan"`` stage scores the channels from the current map's region
    means and modulates the map by their gains. A ``"spat"`` stage scores the
    regions; as the last stage it aggregates them by the ``1/K`` weighted sum,
    otherwise it rescales the rows and keeps the K x D map for the next stage.
    An order ending on ``"chan"`` aggregates by the plain per-channel mean.
    Returns ``(attended, beta, eta)``, ``None`` for a stage the order lacks.
    """
    beta = eta = None
    for position, stage in enumerate(order, start=1):
        if stage == "chan":
            beta = channel_attention(tape, channel_mean_pool(tape, feature_map, mask),
                                     question, channel_params)
            gains = _channel_gains(tape, beta, rescale_channel_gains, gain_strength)
            feature_map = T.mul_vec(tape, feature_map, gains)
        else:
            eta = spatial_attention(tape, feature_map, mask, question, spatial_params,
                                    tanh_after_sum=tanh_after_sum)
            if position == len(order):
                return apply_spatial_weights(tape, eta, feature_map, mask), beta, eta
            feature_map = T.scale_rows(tape, feature_map, eta)
    return channel_mean_pool(tape, feature_map, mask), beta, eta
