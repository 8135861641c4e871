"""Full VQA models: question encoder + attention pipeline + classifier.

A model owns a parameter store and knows its variant, the order in which
``attention.attend`` runs the channel and region stages (``ATTENTION_ORDER``):

* ``ca``    channel attention only, mean aggregation over regions
* ``ra``    region attention only, on the raw feature map
* ``cva``   channel attention, then region attention on the modulated map
* ``cva-v`` the reversed stacking (region first; also published as R-CVA)

Every parameter initializes from a sub-stream named after the parameter, so
two variants built from the same seed share initial values for the parts
they have in common.

A forward pass runs three stages: encode the question, attend over the
regions, then score the answers and take the loss. Each parameter group (the
prefix of its name) is read first by one stage, ``STAGE_OF_GROUP``, which
lets a gradient check that perturbs one group rerun only the stages from
there on.
"""

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import attention, classifier, encoder
from . import tensor as T
from .tensor import InvalidArgumentError, Tensor
from .training import ParameterStore, dropout_mask, glorot_uniform, substream

# a variant is the order in which ``attention.attend`` runs its stages; a
# stage's name is also the prefix of the parameter group it reads
ATTENTION_ORDER = {"ca": ("chan",), "ra": ("spat",), "cva": ("chan", "spat"),
                   "cva-v": ("spat", "chan")}
VARIANTS = tuple(ATTENTION_ORDER)
VARIANT_ALIASES = {"r-cva": "cva-v"}
VARIANT_LABELS = {"ca": "CA", "ra": "RA", "cva": "CVA", "cva-v": "R-CVA"}
GRU_GATES = ("update", "reset", "cand")

# the encoder reads each gate triple of input weights and of biases as one
# stacked leaf; the store registers the encoder kind-major (all w_*, then
# u_*, then b_*), so each triple is one span of the arena
STACKED_LEAVES = {"enc.w_input": tuple(f"enc.w_{gate}" for gate in GRU_GATES),
                  "enc.b_input": tuple(f"enc.b_{gate}" for gate in GRU_GATES)}

# the forward stage that first reads each parameter group: 0 encodes the
# question, 1 attends, 2 scores the answers and takes the loss
STAGE_OF_GROUP = {"enc": 0, "chan": 1, "spat": 1, "clf": 2}

DIMENSION_PROFILES = {
    # desk attn_dim 64: at 32 the region scorer reliably stalls short of the
    # diagnostic-task targets within the 30-epoch budget
    "desk": dict(embed_dim=16, hidden_dim=64, attn_dim=64, fuse_dim=64),
    "full": dict(embed_dim=300, hidden_dim=1024, attn_dim=1024, fuse_dim=1024),
}


def canonical_variant(name):
    """Normalize a variant name; accepts the R-CVA alias for ``cva-v``."""
    key = name.strip().lower()
    key = VARIANT_ALIASES.get(key, key)
    if key not in VARIANTS:
        raise InvalidArgumentError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANTS)} "
            f"(alias {', '.join(VARIANT_ALIASES)})")
    return key


# what a field annotated int or float accepts besides the Python type itself
_ACCEPTED = {int: numbers.Integral, float: numbers.Real}


@dataclass
class ModelConfig:
    variant: str
    vocab_size: int
    num_answers: int
    feat_dim: int
    embed_dim: int = 16
    hidden_dim: int = 64
    attn_dim: int = 32
    fuse_dim: int = 64
    max_question_len: int = 26
    # Question-aware region scoring (tanh around the summed visual and
    # question terms). False keeps the question term outside the tanh, where
    # it cancels under softmax and the weights become question-independent.
    tanh_after_sum: bool = True
    # Mean-one channel gains 1 + s*(D*beta - 1). False restores the literal
    # modulation, which shrinks features by ~1/D and leaves the stacked
    # region scorer untrainable at desk scale.
    rescale_channel_gains: bool = True
    channel_gain_strength: float = attention.DEFAULT_GAIN_STRENGTH

    def __post_init__(self):
        # a checkpoint header read back by ``eval`` is outside input: every
        # field must have its annotated type (a bool is neither an int nor a float)
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _ACCEPTED.get(f.type, f.type))
                    or (f.type is not bool and isinstance(value, bool))):
                raise InvalidArgumentError(f"{f.name} must be {f.type.__name__}, got {value!r}")
            if f.type is int and value < 1:
                raise InvalidArgumentError(f"{f.name} must be positive")
            if f.type is float and not math.isfinite(value):
                raise InvalidArgumentError(f"{f.name} must be finite, got {value!r}")
        self.variant = canonical_variant(self.variant)

    @classmethod
    def from_profile(cls, profile, **kwargs):
        if profile not in DIMENSION_PROFILES:
            raise InvalidArgumentError(f"unknown dimension profile {profile!r}")
        merged = dict(DIMENSION_PROFILES[profile])
        merged.update(kwargs)
        return cls(**merged)

    def to_dict(self):
        return asdict(self)


@dataclass
class Batch:
    """Aligned arrays for a batch of examples, padded to a common K and T.

    Example ``b`` has ``region_counts[b]`` regions, the first rows of its
    ``(K, D)`` map; the rows past its count must be zero (``gather`` pads
    with zeros). Omitted counts mean every row is a region. The attention
    mask is built from the counts once, here, and serves every forward pass
    over the batch.
    """

    features: np.ndarray   # (B, K, D) float64
    token_ids: np.ndarray  # (B, T_max) int64, padded with 0 past each length
    lengths: np.ndarray    # (B,) int64
    labels: np.ndarray     # (B,) int64
    region_counts: np.ndarray = None  # (B,) int64, each in [1, K]
    region_mask: attention.RegionMask = field(init=False, repr=False)

    def __post_init__(self):
        batch, k = self.features.shape[:2]
        if self.region_counts is None:
            self.region_counts = np.full(batch, k, dtype=np.int64)
        counts = self.region_counts = np.asarray(self.region_counts, dtype=np.int64)
        if counts.shape != (batch,) or (counts < 1).any() or (counts > k).any():
            raise InvalidArgumentError(
                f"region counts must be a ({batch},) vector in [1, {k}], got {counts}")
        self.region_mask = attention.RegionMask(counts, k)

    @classmethod
    def of_one(cls, features, token_ids, label):
        """One ``(K, D)`` map, question and answer label as a batch of one."""
        ids = np.asarray(token_ids, dtype=np.int64)
        return cls(features=np.asarray(features, dtype=np.float64)[None],
                   token_ids=ids[None], lengths=np.array([ids.size]),
                   labels=np.array([label]))


def parameter_layout(cfg):
    """``{name: (shape, starts at zero)}`` of every parameter of a model of
    the ``ModelConfig`` ``cfg``, in registration order: what ``VqaModel``
    registers, and what a checkpoint of it holds."""
    layout = {}

    def init(name, shape, zero=False):
        layout[name] = (shape, zero)

    init("enc.embed", (cfg.vocab_size, cfg.embed_dim))
    for gate in GRU_GATES:
        init(f"enc.w_{gate}", (cfg.hidden_dim, cfg.embed_dim))
    for gate in GRU_GATES:
        init(f"enc.u_{gate}", (cfg.hidden_dim, cfg.hidden_dim))
    for gate in GRU_GATES:
        init(f"enc.b_{gate}", (cfg.hidden_dim,), zero=True)
    if "chan" in ATTENTION_ORDER[cfg.variant]:
        init("chan.vis_scale", (cfg.feat_dim,))
        init("chan.vis_shift", (cfg.feat_dim,), zero=True)
        init("chan.w_question", (cfg.attn_dim, cfg.hidden_dim))
        init("chan.b_question", (cfg.attn_dim,), zero=True)
        init("chan.w_score", (cfg.attn_dim,))
        init("chan.b_score", (), zero=True)
    if "spat" in ATTENTION_ORDER[cfg.variant]:
        init("spat.w_visual", (cfg.attn_dim, cfg.feat_dim))
        init("spat.b_visual", (cfg.attn_dim,), zero=True)
        init("spat.w_question", (cfg.attn_dim, cfg.hidden_dim))
        init("spat.b_question", (cfg.attn_dim,), zero=True)
        init("spat.w_score", (cfg.attn_dim,))
        init("spat.b_score", (), zero=True)
    init("clf.w_visual", (cfg.fuse_dim, cfg.feat_dim))
    init("clf.w_question", (cfg.fuse_dim, cfg.hidden_dim))
    init("clf.b_hidden", (cfg.fuse_dim,), zero=True)
    init("clf.w_out", (cfg.num_answers, cfg.fuse_dim))
    init("clf.b_out", (cfg.num_answers,), zero=True)
    return layout


class VqaModel:
    def __init__(self, config, seed=0):
        self.config = config
        self.store = ParameterStore(self._initial_values(seed))
        stacked = {name for parts in STACKED_LEAVES.values() for name in parts}
        views = {name: (self.store[name].value, self.store[name].grad)
                 for name in self.store.names() if name not in stacked}
        views.update((name, self.store.stacked(parts))
                     for name, parts in STACKED_LEAVES.items())
        self._leaves = {}
        for name, (value, grad) in views.items():
            self._leaves[name] = leaf = Tensor(value)
            leaf.grad = grad
        self._params = self._groups(self._leaves)

    # -- construction -------------------------------------------------------

    def _initial_values(self, seed):
        """Every parameter's initial value, in registration order."""
        return {name: np.zeros(shape) if zero else
                glorot_uniform(shape, substream(seed, "init", name))
                for name, (shape, zero) in parameter_layout(self.config).items()}

    # -- parameter views ----------------------------------------------------

    def leaves(self):
        """The leaf tensors the forward reads, built once with the model: every
        parameter, but the encoder's input weights and biases as the stacked
        leaves of ``STACKED_LEAVES``. A leaf's ``value`` and ``grad`` are views
        of the store's arena, so every forward sees restores, in-place probes
        and optimizer updates, and a backward accumulates into the store.
        Nothing may rebind ``store``, or a leaf's ``value`` or ``grad``."""
        return self._leaves

    @staticmethod
    def _groups(leaves):
        """One namespace of leaves per group in ``STAGE_OF_GROUP`` order, or
        ``None`` for a group the variant lacks; an attribute is its leaf name's
        suffix (``leaves["chan.w_score"]`` is ``chan.w_score``). A leaf whose
        prefix names no group is refused."""
        groups = {group: {} for group in STAGE_OF_GROUP}
        for name, leaf in leaves.items():
            group, _, attr = name.partition(".")
            if group not in groups:
                raise InvalidArgumentError(f"parameter {name!r} belongs to no forward stage")
            groups[group][attr] = leaf
        return tuple(SimpleNamespace(**members) if members else None
                     for members in groups.values())

    # -- forward passes -----------------------------------------------------

    def _attend(self, tape, batch, question, chan, spat):
        cfg = self.config
        return attention.attend(
            tape, ATTENTION_ORDER[cfg.variant], T.constant(batch.features), batch.region_mask,
            question, chan, spat, tanh_after_sum=cfg.tanh_after_sum,
            rescale_channel_gains=cfg.rescale_channel_gains,
            gain_strength=cfg.channel_gain_strength)

    @staticmethod
    def _loss(tape, batch, scores):
        return T.mean_all(tape, classifier.answer_loss(tape, scores, batch.labels))

    def _forward_batch(self, tape, batch, dropout_rate=0.0, dropout_rng=None):
        enc, chan, spat, clf = self._params
        question = encoder.encode_questions_batch(tape, enc, batch.token_ids,
                                                  batch.lengths)
        attended, beta, eta = self._attend(tape, batch, question, chan, spat)
        mask = None
        if dropout_rate > 0.0 and dropout_rng is not None:
            mask = T.constant(dropout_mask((batch.labels.size, self.config.fuse_dim),
                                           dropout_rate, dropout_rng))
        scores = classifier.answer_scores(tape, attended, question, clf,
                                          dropout_mask=mask)
        return scores, beta, eta

    def batch_loss(self, tape, batch, dropout_rate=0.0, dropout_rng=None):
        """Mean cross-entropy over one padded batch; returns ``(loss, scores)``
        with a scalar loss node and the ``(B, A)`` scores. Each example
        attends over its own ``region_counts`` rows only."""
        scores = self._forward_batch(tape, batch, dropout_rate, dropout_rng)[0]
        return self._loss(tape, batch, scores), scores

    def stage_probes(self, batch):
        """Tapeless losses for probing the parameters in place, one per stage.

        Returns ``[(names, f)]`` in stage order, where ``names`` are the store
        parameters that stage reads first (``STAGE_OF_GROUP``), in store
        order, and ``f()`` is the batch loss recomputed from that stage on.
        The earlier stages' outputs are computed once, here, from the
        unperturbed parameters: while only ``names`` are perturbed they do not
        change, so ``f()`` returns the bits of a full re-evaluation.
        """
        stages = [[] for _ in range(3)]
        for name in self.store.names():
            stages[STAGE_OF_GROUP[name.partition(".")[0]]].append(name)
        enc, chan, spat, clf = self._params
        question = encoder.encode_questions_batch(None, enc, batch.token_ids,
                                                  batch.lengths)
        attended = self._attend(None, batch, question, chan, spat)[0]

        def score(attended_now):
            scores = classifier.answer_scores(None, attended_now, question, clf)
            return self._loss(None, batch, scores).value

        return list(zip(stages, (
            lambda: self.batch_loss(None, batch)[0].value,
            lambda: score(self._attend(None, batch, question, chan, spat)[0]),
            lambda: score(attended))))

    def train_step_forward_backward(self, batches, dropout_rate=0.0, dropout_rng=None):
        """One recorded forward/backward over a batch; accumulates the store's
        gradients, which are zero between steps (a new store, ``adam_step``
        and ``restore_checkpoint`` leave them so).

        ``batches`` is the one-element list ``PreparedDataset.gather`` returns.
        The loss is the mean cross-entropy over the batch's examples. Returns
        ``(loss_value, predictions, labels)``.
        """
        (batch,) = batches
        tape = T.Tape()
        loss, scores = self.batch_loss(tape, batch, dropout_rate, dropout_rng)
        tape.backward(loss)
        return float(loss.value), np.argmax(scores.value, axis=-1), batch.labels

    def predict_batch(self, batch):
        """Evaluation-mode scores ``(B, A)``; dropout off, nothing recorded."""
        return self._forward_batch(None, batch)[0].value

    def instance_loss(self, tape, features, token_ids, label):
        """Scalar training loss for one example (no dropout)."""
        return self.batch_loss(tape, Batch.of_one(features, token_ids, int(label)))[0]

    def attention_readout(self, batch):
        """Evaluation-mode attention distributions of a batch: channel weights
        ``(B, D)`` and region weights ``(B, K)``, ``None`` for a stage the
        variant lacks."""
        _, beta, eta = self._forward_batch(None, batch)
        return tuple(None if w is None else w.value for w in (beta, eta))
