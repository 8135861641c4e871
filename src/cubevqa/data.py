"""Feature ingestion and synthetic diagnostic datasets.

Region features are ingested from a single-file binary container (magic
``CVAF``) rather than produced here; upstream detectors are out of scope.
The toy generator builds seeded images whose questions separate the two
attention mechanisms:

* spatial questions name a region identity and ask for that region's color.
  Each region row carries a one-hot identity block and a centered color
  block ``(K * onehot(color) - color_histogram) / 2^ceil(log2 K)``. The
  centering makes the per-channel mean of the color block exactly zero, so
  nothing that pools regions first can recover the queried region's color;
  locating the region is the only route to the answer.
* channel questions ask for a global attribute (shape, size) that every
  region encodes identically in its own disjoint channel block, so any
  region weighting preserves the answer and channel selection suffices.

Remaining channels carry uniform noise so no gradient path is degenerate.

On-disk formats: dataset examples are line-delimited text
(``image_id tok tok ...<TAB>ans,...,ans<TAB>label`` with exactly ten
answers), vocabularies are one token per line with the unknown token at
id 0, and the container layout is documented at ``write_features``.
"""

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tensor import InvalidArgumentError
from .training import ByteReader, FormatError, open_text, substream

UNKNOWN_TOKEN = "<unk>"
HUMAN_ANSWERS_PER_QUESTION = 10
MAX_QUESTION_LEN = 26  # tokens; a longer question is refused
TOY_TASKS = ("spatial", "channel", "mixed")

COLOR_WORDS = ("red", "green", "blue", "yellow", "purple", "orange", "cyan", "magenta")
FAMILIES = (
    ("shape", ("circle", "square", "triangle", "star", "hexagon", "ring", "cross", "arrow")),
    ("size", ("tiny", "small", "medium", "large", "huge", "giant", "mini", "grand")),
)
TOY_COLORS = 5  # colors per block; plan_layout uses fewer when D is too small

# Gain on the identity one-hots. Region matching is the hardest signal for
# the additive-tanh region scorer to pick up (the query interacts with
# content only through tanh curvature), and at gain 1.0 desk-scale training
# plateaus short of solving the task; 3.0 makes all seeds converge inside
# 30 epochs without destabilizing the other blocks.
IDENTITY_GAIN = 3.0


# ---------------------------------------------------------------------------
# feature container


class FeatureContainer:
    """Region feature maps keyed by image id; D is uniform, K may vary.

    ``records`` holds the built maps. ``admit`` takes a record's header
    alone, so ids, shapes and the channel count are checked across records
    that are never built; ``build`` keeps the map of an admitted record.
    """

    def __init__(self):
        self.records = {}
        self.feat_dim = None
        self._ids = set()   # every admitted id, built or not

    def admit(self, image_id, shape):
        """Check a record's ``(K, D)`` shape, that its id is new and that
        its D is the container's, and take the id."""
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise InvalidArgumentError(
                f"features for {image_id!r} must be a (K, D) matrix, got {shape}")
        if image_id in self._ids:
            raise InvalidArgumentError(f"duplicate image id {image_id!r}")
        if self.feat_dim is None:
            self.feat_dim = shape[1]
        elif shape[1] != self.feat_dim:
            raise InvalidArgumentError(
                f"features for {image_id!r} have {shape[1]} channels, "
                f"container uses {self.feat_dim}")
        self._ids.add(image_id)

    def build(self, image_id, features):
        """Keep an admitted record's map; non-finite values are refused."""
        if not np.all(np.isfinite(features)):
            raise InvalidArgumentError(f"features for {image_id!r} contain non-finite values")
        self.records[image_id] = features

    def add(self, image_id, features):
        features = np.asarray(features, dtype=np.float32)
        self.admit(image_id, features.shape)
        self.build(image_id, features)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, image_id):
        return self.records[image_id]

    def __contains__(self, image_id):
        return image_id in self.records


_FEATURE_MAGIC = b"CVAF"
_FEATURE_VERSION = 1


def write_features(container, path):
    """Binary layout: magic ``CVAF``, version u32, record count u32, then per
    record {id length u16, id bytes, K u32, D u32, K*D little-endian f32
    row-major}."""
    with open(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(struct.pack("<I", _FEATURE_VERSION))
        fh.write(struct.pack("<I", len(container)))
        for image_id, features in container.records.items():
            encoded = image_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", features.shape[0], features.shape[1]))
            fh.write(features.astype("<f4", copy=False).tobytes(order="C"))


def load_features(path, image_ids=None):
    """Parse a CVAF file, reading and building the records ``image_ids``
    (a set, or ``None`` for all) names: each a read-only view of the read.

    Every record's header is checked first: a truncated payload, an id that
    is not UTF-8, a repeated id, an empty shape or another channel count is
    refused, as are trailing bytes. Then each run of adjacent built records
    is one read, and only built records are scanned for non-finite values.
    A named id the file lacks is simply absent from the container.
    """
    container = FeatureContainer()
    with open(path, "rb") as fh:
        reader = ByteReader(fh, FormatError, _FEATURE_MAGIC, _FEATURE_VERSION)
        (count,) = reader.unpack("<I", "record count")
        for _ in range(count):
            image_id = reader.name("image id")
            shape = reader.unpack("<II", f"dimensions of {image_id!r}")
            keep = image_ids is None or image_id in image_ids
            reader.skip(4 * shape[0] * shape[1], f"features of {image_id!r}",
                        (image_id, shape) if keep else None)
            container.admit(image_id, shape)
        payloads = reader.finish()
    for (image_id, shape), payload in payloads:
        container.build(image_id, np.frombuffer(payload, dtype="<f4").reshape(shape))
    return container


# ---------------------------------------------------------------------------
# examples and vocabularies


@dataclass
class VqaExample:
    image_id: str
    tokens: list
    human_answers: list
    train_label: int = -1


def write_examples(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(f"{ex.image_id} {' '.join(ex.tokens)}\t"
                     f"{','.join(ex.human_answers)}\t{ex.train_label}\n")


def load_examples(path, num_answers=None):
    examples = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            head = parts[0].split()
            if len(head) < 2:
                raise FormatError(f"{path}:{lineno}: expected image id and question tokens")
            answers = parts[1].split(",")
            if len(answers) != HUMAN_ANSWERS_PER_QUESTION:
                raise FormatError(
                    f"{path}:{lineno}: expected {HUMAN_ANSWERS_PER_QUESTION} answers, "
                    f"got {len(answers)}")
            try:
                label = int(parts[2])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: label {parts[2]!r} is not an integer")
            if label < 0 or (num_answers is not None and label >= num_answers):
                raise FormatError(f"{path}:{lineno}: label {label} outside answer vocabulary")
            examples.append(VqaExample(head[0], head[1:], answers, label))
    return examples


def write_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab:
            fh.write(token + "\n")


def load_vocab(path):
    """One entry per non-empty line; an entry listed twice is refused."""
    lines = {}  # entry: its line number
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            token = raw.rstrip("\n")
            if token in lines:
                raise FormatError(f"{path}:{lineno}: {token!r} repeats line {lines[token]}")
            if token:
                lines[token] = lineno
    vocab = list(lines)
    if not vocab or vocab[0] != UNKNOWN_TOKEN:
        raise FormatError(f"{path}: vocabulary must start with {UNKNOWN_TOKEN!r}")
    return vocab


def vocab_digest(vocab):
    """SHA-256 hex digest of a vocabulary's entries in order, as
    ``write_vocab`` writes them: it changes if an entry, and so an id, moves."""
    return hashlib.sha256("".join(token + "\n" for token in vocab)
                          .encode("utf-8")).hexdigest()


def build_vocab(examples, answer_cap=2000):
    """Question and answer vocabularies with the unknown token at id 0.

    Tokens are sorted lexicographically for stable ids. Answers above the
    frequency cap are dropped (ties at the cutoff break lexicographically).
    """
    if not examples:
        raise InvalidArgumentError("build_vocab: no examples")
    tokens = sorted({tok for ex in examples for tok in ex.tokens} - {UNKNOWN_TOKEN})
    counts = Counter(ans for ex in examples for ans in ex.human_answers)
    ranked = sorted(counts, key=lambda a: (-counts[a], a))[:max(answer_cap - 1, 0)]
    answers = sorted(set(ranked) - {UNKNOWN_TOKEN})
    return [UNKNOWN_TOKEN] + tokens, [UNKNOWN_TOKEN] + answers


def encode_tokens(tokens, vocab_index):
    """Map token strings to ids; unknown tokens map to id 0."""
    return np.array([vocab_index.get(tok, 0) for tok in tokens], dtype=np.int64)


def most_frequent_answer(answers):
    """The training target: the most frequent of the ten human answers,
    ties broken lexicographically."""
    counts = Counter(answers)
    return min(counts, key=lambda a: (-counts[a], a))


def assign_labels(examples, answer_vocab):
    index = {ans: i for i, ans in enumerate(answer_vocab)}
    for ex in examples:
        ex.train_label = index.get(most_frequent_answer(ex.human_answers), 0)
    return examples


# ---------------------------------------------------------------------------
# toy generator


@dataclass
class ToyLayout:
    """Channel block offsets of the synthetic encoding."""

    num_regions: int
    num_colors: int
    num_families: int
    feat_dim: int

    @property
    def identity_slice(self):
        return slice(0, self.num_regions)

    @property
    def color_slice(self):
        start = self.num_regions
        return slice(start, start + self.num_colors)

    def family_slice(self, family):
        start = self.num_regions + self.num_colors + family * self.num_colors
        return slice(start, start + self.num_colors)

    @property
    def filler_start(self):
        return self.num_regions + self.num_colors * (1 + self.num_families)


def plan_layout(k, d):
    """Fit the block layout into D channels, with fewer colors or families if needed."""
    if k < 2:
        raise InvalidArgumentError(f"toy tasks need at least 2 regions, got K={k}")
    if d < 8:
        raise InvalidArgumentError(f"toy tasks need at least 8 channels, got D={d}")
    for fam in range(len(FAMILIES), 0, -1):
        c = min(TOY_COLORS, (d - k) // (1 + fam))
        if c >= 2:
            return ToyLayout(k, c, fam, d)
    raise InvalidArgumentError(f"cannot fit identity/color/attribute blocks into D={d} with K={k}")


@dataclass
class ToyBundle:
    task: str
    layout: ToyLayout
    container: FeatureContainer
    examples: list
    question_vocab: list
    answer_vocab: list


def _toy_image(layout, rng):
    k, c = layout.num_regions, layout.num_colors
    colors = rng.integers(0, c, size=k)
    while np.all(colors == colors[0]):
        colors = rng.integers(0, c, size=k)
    attributes = rng.integers(0, c, size=layout.num_families)
    row_identity = rng.permutation(k)
    histogram = np.bincount(colors, minlength=c)
    # color block: (K * onehot(color) - histogram) / 2^ceil(log2 K).
    # Integer numerators and a power-of-two divisor keep the arithmetic
    # exact, so the per-channel mean of the block is exactly zero and the
    # entries stay O(1) next to the identity one-hots.
    divisor = float(1 << (k - 1).bit_length())
    features = np.zeros((k, layout.feat_dim))
    for row in range(k):
        ident = row_identity[row]
        features[row, layout.identity_slice][ident] = IDENTITY_GAIN
        block = -histogram.astype(np.float64)
        block[colors[ident]] += k
        features[row, layout.color_slice] = block / divisor
        for fam in range(layout.num_families):
            features[row, layout.family_slice(fam)][attributes[fam]] = 1.0
    filler = layout.feat_dim - layout.filler_start
    if filler > 0:
        features[:, layout.filler_start:] = rng.uniform(-0.1, 0.1, size=(k, filler))
    return features, colors, attributes


def generate_toy_dataset(task, size, k, d, seed, split="train"):
    """Seeded toy dataset: features, labeled examples, and vocabularies.

    ``task`` is ``spatial``, ``channel``, or ``mixed`` (a 50/50 blend). All
    ten human answers equal the true answer. Identical arguments produce
    identical bytes on disk.
    """
    if task not in TOY_TASKS:
        raise InvalidArgumentError(f"unknown task {task!r}")
    if size < 1:
        raise InvalidArgumentError(f"dataset size must be >= 1, got {size}")
    layout = plan_layout(k, d)
    rng = substream(seed, "data", task, split)
    container = FeatureContainer()
    examples = []
    for n in range(size):
        image_id = f"{split}_{n:06d}"
        features, colors_by_identity, attributes = _toy_image(layout, rng)
        container.add(image_id, features)
        if task == "mixed":
            kind = "spatial" if rng.random() < 0.5 else "channel"
        else:
            kind = task
        if kind == "spatial":
            region = int(rng.integers(0, layout.num_regions))
            tokens = ["what", "color", "is", "region", str(region)]
            answer = COLOR_WORDS[colors_by_identity[region]]
        else:
            fam = int(rng.integers(0, layout.num_families))
            family, values = FAMILIES[fam]
            tokens = ["what", family, "is", "the", "image"]
            answer = values[attributes[fam]]
        examples.append(VqaExample(image_id, tokens, [answer] * HUMAN_ANSWERS_PER_QUESTION))
    question_vocab, answer_vocab = build_vocab(examples)
    assign_labels(examples, answer_vocab)
    return ToyBundle(task, layout, container, examples, question_vocab, answer_vocab)


# ---------------------------------------------------------------------------
# training-ready assembly


@dataclass
class PreparedDataset:
    """Examples joined with their features and encoded against vocabularies."""

    examples: list
    features: list      # per-example (K, D) float32 maps, the container's own arrays
    token_ids: list     # per-example (T,) int64 arrays
    labels: np.ndarray  # (N,) int64
    question_vocab: list
    answer_vocab: list

    def size(self):
        return len(self.examples)

    def gather(self, indices):
        """Stack the selected examples, in order, into one padded batch.

        Region maps are cast to float64 and zero-padded to the batch's
        largest region count, token ids to its longest question, and the
        batch records each example's true region count and question length.
        Attention masks the regions past each count and the encoder carries
        each example's state past its length, so padding never changes a
        result. Returns a one-element list holding the batch.
        """
        from .model import Batch
        chosen = [int(i) for i in indices]
        counts = np.array([self.features[i].shape[0] for i in chosen], dtype=np.int64)
        lengths = np.array([self.token_ids[i].size for i in chosen], dtype=np.int64)
        features = np.zeros((len(chosen), counts.max(), self.features[chosen[0]].shape[1]))
        ids = np.zeros((len(chosen), lengths.max()), dtype=np.int64)
        for row, i in enumerate(chosen):
            features[row, :counts[row]] = self.features[i]
            ids[row, :lengths[row]] = self.token_ids[i]
        return [Batch(features=features, token_ids=ids, lengths=lengths,
                      labels=self.labels[chosen], region_counts=counts)]


def prepare_dataset(container, examples, question_vocab, answer_vocab,
                    max_question_len=MAX_QUESTION_LEN):
    """Join examples with features and encode tokens/labels for training."""
    index = {tok: i for i, tok in enumerate(question_vocab)}
    features = []
    token_ids = []
    labels = np.zeros(len(examples), dtype=np.int64)
    for n, ex in enumerate(examples):
        if ex.image_id not in container:
            raise InvalidArgumentError(f"no features for image {ex.image_id!r}")
        if len(ex.tokens) > max_question_len:
            raise InvalidArgumentError(
                f"question for {ex.image_id!r} has {len(ex.tokens)} tokens, "
                f"maximum is {max_question_len}")
        features.append(container[ex.image_id])
        token_ids.append(encode_tokens(ex.tokens, index))
        labels[n] = ex.train_label
    return PreparedDataset(examples, features, token_ids, labels,
                           question_vocab, answer_vocab)


def load_pretrained_embeddings(path, question_vocab, embed_dim):
    """Optional text-format embedding loader: ``token v1 v2 ... vE`` per line.

    Returns ``{vocab_index: vector}`` for the tokens found in the file;
    tokens absent from it keep their random initialization.
    """
    index = {tok: i for i, tok in enumerate(question_vocab)}
    rows = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 1 + embed_dim:
                raise FormatError(
                    f"{path}:{lineno}: expected token plus {embed_dim} values, "
                    f"got {len(parts) - 1}")
            if parts[0] in index:
                try:
                    vector = np.array([float(x) for x in parts[1:]])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: non-numeric embedding value")
                if not np.all(np.isfinite(vector)):
                    raise FormatError(f"{path}:{lineno}: non-finite embedding value")
                rows[index[parts[0]]] = vector
    return rows
