"""Optimization: Adam with gradient clipping, dropout, and checkpointing.

The parameter store owns every trainable array together with its gradient
buffer and Adam moment estimates. Training is a single logical writer: one
step records a tape whose backward pass accumulates gradients straight into
the store, clips the global norm, and applies Adam. All randomness flows
from one seed through named sub-streams (init / shuffle / dropout / data),
so two runs with identical seed, config, and data produce bitwise-identical
parameters.

Checkpoints (CVAC version 3) are one little-endian file in the arena's
layout: magic ``CVAC``, u32 version, u32 entry count, the values as that many
named arrays in store order (u16 name length, UTF-8 name, u8 rank, u32 dims,
f8 payload), the first and the second Adam moments as one unnamed block of
8·N bytes each (N the values' total size, in the same order), the u64 step
counter, the header (a u32 byte count, then a UTF-8 JSON object recording the
model config, batch size and vocabulary digests), and a u32 ``zlib.crc32`` of
step counter and header. A checkpoint fits a model only if the two
``[(name, shape)]`` lists are equal, order included (``check_layout``).
Versions 1 and 2, which named every array three times, are refused. A save
that fails part way leaves the previous checkpoint in place (``atomic_writer``).
"""

import collections
import contextlib
import itertools
import json
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .tensor import InvalidArgumentError, ShapeError


class FormatError(ValueError):
    """On-disk bytes or text violate a container/dataset format."""


class CheckpointFormatError(FormatError):
    """Checkpoint bytes violate the container format."""


@contextlib.contextmanager
def open_text(path):
    """``path`` opened for reading as UTF-8 text. Bytes that are not UTF-8
    raise ``FormatError`` naming the file, however far the reader got."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: not UTF-8 ({err.reason})") from None


def substream(seed, *tags):
    """Derive a named random generator from the run seed.

    Tags (strings or ints) select independent streams deterministically, so
    e.g. initialization and shuffling never share draws and variants trained
    from the same seed share initialization for identically named parameters.
    The seed is any non-negative integer, taken whole: seeds that differ
    above 32 bits do not share a stream.
    """
    if int(seed) < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed}")
    entropy = [int(seed)]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(int(tag) & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def glorot_uniform(shape, rng):
    """Fan-scaled uniform init, range +/- sqrt(6 / (fan_in + fan_out)).

    A weight vector of length n is treated as an (1, n) map; keeps
    pre-softmax scores O(1) at initialization so no softmax saturates.
    """
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_in = fan_out = 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# one parameter: its value and gradient, views into its store's arena
Param = collections.namedtuple("Param", "value grad")


# elements per Adam pass: the chunk's slices of the five vectors stay in
# cache across the dozen ufunc passes, and a desk-scale arena is one chunk
_ADAM_CHUNK = 1 << 16


class ParameterStore:
    """Named trainable tensors over one flat arena.

    The store keeps four contiguous float64 vectors (values, gradients, first
    and second Adam moments), allocated once from the complete ordered
    mapping of initial values, and the optimizer's scratch: one chunk-long
    row per core its chunks are split over, ``min(USABLE_CORES, chunks)``
    rows, so a one-chunk (desk-scale) arena keeps exactly one. Each
    ``Param``'s arrays are views into them and are never rebound, so leaf
    tensors, checkpoint restores and in-place probes that hold a reference
    keep seeing the live parameter, and the optimizer updates every parameter,
    and its moments, in a few ufunc passes over the arena.
    """

    def __init__(self, initial_values):
        arrays = {name: np.asarray(value, dtype=np.float64)
                  for name, value in initial_values.items()}
        total = sum(a.size for a in arrays.values())
        self.flat_value = np.zeros(total)
        self.flat_grad = np.zeros(total)
        self.flat_m = np.zeros(total)
        self.flat_v = np.zeros(total)
        # allocated with the arena: a fresh one per step would be mapped and
        # unmapped every step, being above the allocator's mmap threshold
        runs = min(T.USABLE_CORES, math.ceil(total / _ADAM_CHUNK))
        self.adam_scratch = np.empty((runs, min(total, _ADAM_CHUNK)))
        self._params = {}
        self._spans = {}
        offset = 0
        for name, array in arrays.items():
            span = self._spans[name] = slice(offset, offset + array.size)
            self._params[name] = Param(*(flat[span].reshape(array.shape)
                                         for flat in (self.flat_value, self.flat_grad)))
            self._params[name].value[...] = array
            offset += array.size
        self.step = 0

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return list(self._params)

    def values(self):
        return {name: p.value for name, p in self._params.items()}

    def stacked(self, names):
        """``(value, grad)`` views over the parameters ``names`` stacked along
        their first axis, as one span of the arena: the names must have been
        registered one after another and share their trailing shape."""
        spans = [self._spans[name] for name in names]
        trailing = self._params[names[0]].value.shape[1:]
        if any(a.stop != b.start for a, b in zip(spans, spans[1:])) or any(
                self._params[name].value.shape[1:] != trailing for name in names):
            raise InvalidArgumentError(f"parameters {names} are not one stackable span")
        span = slice(spans[0].start, spans[-1].stop)
        return tuple(flat[span].reshape((-1,) + trailing)
                     for flat in (self.flat_value, self.flat_grad))

    def grad_norm(self):
        # einsum rather than np.dot: a dot sums in another order, so changing
        # it would move the clip's bits and every checkpoint's
        return float(np.sqrt(np.einsum("i,i->", self.flat_grad, self.flat_grad)))


def clip_gradients(store, max_norm):
    """Scale all gradients so the global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. A non-finite norm leaves the gradients for
    ``adam_step`` to refuse; scaling by ``max_norm / inf`` would make inf * 0.
    """
    if max_norm <= 0:
        raise InvalidArgumentError(f"clip norm must be positive, got {max_norm}")
    norm = store.grad_norm()
    if max_norm < norm < math.inf:
        store.flat_grad *= max_norm / norm
    return norm


def adam_step(store, config, grad_norm=None):
    """One Adam update with bias correction; zeroes gradients afterwards.

    Works in place on the arena, one chunk at a time, the chunks split over
    the usable cores (``tensor.run_on_cores``), each run with its own row of
    the store's scratch. The elementwise operations and their order match
    the textbook per-array form exactly, so the bits do not depend on the
    core count; each gradient chunk doubles as scratch once the moments have
    consumed it.

    A non-finite gradient is refused, naming its parameter. ``grad_norm`` is
    what ``clip_gradients`` returned for these gradients: when it is finite,
    every gradient is, and the scan for non-finite values is skipped.
    """
    scan = grad_norm is None or not math.isfinite(grad_norm)
    if scan and not np.isfinite(store.flat_grad).all():
        name = next(n for n in store.names() if not np.isfinite(store[n].grad).all())
        raise InvalidArgumentError(f"non-finite gradient for parameter {name!r}")
    store.step += 1
    t = store.step
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t

    def update(run_index, starts):
        for start in starts:
            span = slice(start, start + _ADAM_CHUNK)
            g, m, v = store.flat_grad[span], store.flat_m[span], store.flat_v[span]
            s = store.adam_scratch[run_index, :g.size]
            np.multiply(g, 1.0 - b1, out=s)
            m *= b1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v *= b2
            v += s
            np.divide(m, bias1, out=s)
            s *= config.learning_rate
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += config.eps
            s /= g
            store.flat_value[span] -= s
            g.fill(0.0)

    T.run_on_cores(range(0, store.flat_grad.size, _ADAM_CHUNK), update)


def dropout_mask(shape, rate, rng):
    """Pre-scaled keep mask for inverted dropout."""
    if not 0.0 <= rate < 1.0:
        raise InvalidArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    """Optimizer and loop settings; all fields may come from a config file.

    The defaults are the conventional full-scale settings (batch 256 as in
    the training regime the model targets; lr/clip/dropout are standard
    values, not published ones). Desk-scale runs override them; see
    ``configs/desk.cfg``.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 30
    clip_norm: float = 10.0
    dropout: float = 0.5
    seed: int = 0
    profile: str = "desk"

    def validate(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise InvalidArgumentError(
                    f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise InvalidArgumentError("Adam betas must lie in (0, 1)")
        if self.learning_rate < 0 or self.eps <= 0:
            raise InvalidArgumentError("learning rate must be >= 0 and eps > 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise InvalidArgumentError("batch size must be >= 1 and epochs >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidArgumentError("dropout rate must be in [0, 1)")
        if self.clip_norm <= 0:
            raise InvalidArgumentError("clip norm must be positive")
        if self.profile not in ("desk", "full"):
            raise InvalidArgumentError(f"unknown profile {self.profile!r}")
        return self


_CONFIG_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def parse_config_file(path):
    """Read flat ``key = value`` lines into a TrainConfig."""
    overrides = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_TYPES:
                raise InvalidArgumentError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = val
    return apply_overrides(TrainConfig(), overrides)


def apply_overrides(config, overrides):
    """Apply string-valued overrides (from a file or CLI flags)."""
    converted = {}
    for key, val in overrides.items():
        if val is None:
            continue
        kind = _CONFIG_TYPES[key]
        try:
            converted[key] = kind(val)
        except ValueError:
            raise InvalidArgumentError(
                f"config value {val!r} for {key!r} is not {kind.__name__}") from None
    return replace(config, **converted).validate()


# ---------------------------------------------------------------------------
# epoch loop


def train_epoch(model, dataset, config, epoch):
    """Run one epoch of shuffled minibatch training; returns (loss, accuracy).

    The shuffle order and dropout draws derive from (seed, epoch) alone, so a
    run resumed from an epoch-boundary checkpoint replays the identical
    schedule. Aborts with the failing batch index if the loss goes non-finite.
    """
    n = dataset.size()
    if n == 0:
        raise InvalidArgumentError("train_epoch: dataset is empty")
    order = substream(config.seed, "shuffle", epoch).permutation(n)
    drop_rng = substream(config.seed, "dropout", epoch)
    total_loss = 0.0
    total_correct = 0
    for batch_index, start in enumerate(range(0, n, config.batch_size)):
        chosen = order[start:start + config.batch_size]
        loss_value, predictions, labels = model.train_step_forward_backward(
            dataset.gather(chosen), dropout_rate=config.dropout, dropout_rng=drop_rng)
        if not np.isfinite(loss_value):
            raise InvalidArgumentError(
                f"non-finite loss in epoch {epoch}, batch {batch_index}")
        norm = clip_gradients(model.store, config.clip_norm)
        adam_step(model.store, config, grad_norm=norm)
        total_loss += loss_value * chosen.size
        total_correct += int(np.sum(predictions == labels))
    return total_loss / n, total_correct / n


# ---------------------------------------------------------------------------
# checkpoint format


_MAGIC = b"CVAC"
_VERSION = 3


def _write_entry(fh, name, array):
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape))
    fh.write(array.astype("<f8", copy=False).tobytes(order="C"))


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file on ``path + ".tmp"`` that replaces ``path`` once written.

    If writing raises, the temporary file is removed and ``path`` keeps its
    previous contents. The file is fsynced before the rename and its
    directory after it, so a power loss leaves either the old file or the
    complete new one.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(store, path, header=None):
    """Serialize values, Adam moments, the step counter and ``header``, a
    JSON-ready dict (empty by default)."""
    names = store.names()
    encoded = json.dumps(header or {}, sort_keys=True).encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(struct.pack("<4sII", _MAGIC, _VERSION, len(names)))
        for name in names:
            _write_entry(fh, name, store[name].value)
        for moments in (store.flat_m, store.flat_v):
            fh.write(moments.astype("<f8", copy=False).tobytes())
        tail = struct.pack("<QI", store.step, len(encoded)) + encoded
        fh.write(tail + struct.pack("<I", zlib.crc32(tail)))


# bytes per header window. Loads at 256 B, 1, 4 and 16 KB (warm, median of 21):
# the eval benchmark's test split, 180 of 900 records of 32-96 KB, in 8.7, 9.0,
# 10.0, 10.9 ms; all 2,500 desk records of ~0.8 KB in 20.5, 19.7, 19.8, 18.2 ms
_WINDOW = 4096


class ByteReader:
    """Bounds-checked reads from the little-endian binary container open as
    ``fh``, which starts with ``magic`` and a u32 ``version``.

    The CVAC checkpoint and the CVAF feature container both parse through
    it, headers first: ``take`` hands out fields from a window of the file,
    and ``skip`` steps over a payload, checked against the file's size.
    Then ``finish`` reads the payloads ``skip`` kept, one read per run of
    them with only headers between, into one read-only buffer of anonymous
    memory, and returns views of it. The file itself is read rather than
    memory-mapped: a mapped file that another process truncates raises
    SIGBUS on access, a read one the format's own ``error``, which every
    failure raises, naming the file.
    """

    def __init__(self, fh, error, magic, version):
        self.fh, self.path, self.error = fh, fh.name, error
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = self.window_start = 0
        self.window = b""
        self.spans = []  # (start, count, tag) of every payload, tag None if skipped
        if self.take(len(magic), "magic") != magic:
            raise error(f"{self.path}: bad magic at byte 0")
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise error(f"{self.path}: unsupported version {found}")

    def _check_read(self, filled, count, start):
        if filled != count:
            raise self.error(f"{self.path}: short read of {filled} of {count} "
                             f"bytes at byte {start}")

    def _truncated(self, what):
        return self.error(f"{self.path}: truncated while reading {what} at byte {self.offset}")

    def take(self, count, what):
        at = self.offset - self.window_start
        if at + count > len(self.window):
            if self.offset + count > self.size:
                raise self._truncated(what)
            self.window_start, at = self.offset, 0
            size = min(max(count, _WINDOW), self.size - self.offset)
            self.window = os.pread(self.fh.fileno(), size, self.offset)
            self._check_read(len(self.window), size, self.offset)
        self.offset += count
        return self.window[at:at + count]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def name(self, what, count="<H"):
        """A UTF-8 string behind a byte count of struct format ``count``."""
        (size,) = self.unpack(count, f"{what} length")
        start = self.offset
        try:
            return str(self.take(size, what), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: {what} at byte {start} is not UTF-8") from None

    def skip(self, count, what, tag=None):
        """Step over a ``count``-byte payload; ``finish`` reads it, under
        ``tag``, unless ``tag`` is None."""
        if self.offset + count > self.size:
            raise self._truncated(what)
        self.spans.append((self.offset, count, tag))
        self.offset += count

    def finish(self):
        """Refuse trailing bytes, then return ``(tag, payload)`` for every kept
        payload in file order."""
        if self.offset != self.size:
            raise self.error(f"{self.path}: {self.size - self.offset} trailing "
                             f"bytes at {self.offset}")
        runs = [list(run) for kept, run in itertools.groupby(
            self.spans, lambda span: span[2] is not None) if kept]
        extents = [(run[0][0], run[-1][0] + run[-1][1]) for run in runs]
        total = sum(end - first for first, end in extents)
        # mapped apart from the allocator's heap: eval's ~12 MB in the heap
        # made glibc trim it as each command ended, and the next command
        # took 5,195 minor faults, against 2,056 with the whole-file buffer;
        # a mapping cannot be empty
        area = mmap.mmap(-1, max(total, 1), flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            area.madvise(mmap.MADV_HUGEPAGE)
        buf = np.frombuffer(area, dtype=np.uint8, count=total)
        view, payloads, at = memoryview(buf).toreadonly(), [], 0
        for run, (first, end) in zip(runs, extents):
            filled = os.preadv(self.fh.fileno(), [buf[at:at + end - first]], first)
            self._check_read(filled, end - first, first)
            payloads += [(tag, view[at + start - first:at + start - first + count])
                         for start, count, tag in run]
            at += end - first
        buf.flags.writeable = False
        return payloads


def _read_entry(reader):
    """Step over one named array; returns its ``(name, shape)``."""
    name = reader.name("name")
    (rank,) = reader.unpack("<B", f"rank of {name}")
    shape = reader.unpack(f"<{rank}I", f"dims of {name}")
    reader.skip(8 * math.prod(shape), f"payload of {name}", name)
    return name, shape


# a parsed checkpoint: ``layout`` is ``[(name, shape)]`` in file order,
# ``values`` the arrays in that order, ``moments`` the ``(m, v)`` vectors over
# them; every array is a read-only view of one buffer of payloads
Checkpoint = collections.namedtuple("Checkpoint", "layout values moments step header")


def load_checkpoint(path):
    """Parse a checkpoint file into a ``Checkpoint``; its payloads are one read."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh, CheckpointFormatError, _MAGIC, _VERSION)
        (count,) = reader.unpack("<I", "entry count")
        layout = [_read_entry(reader) for _ in range(count)]
        size = 8 * sum(math.prod(shape) for _, shape in layout)
        for moment in ("first moments", "second moments"):
            reader.skip(size, moment, moment)
        (step,) = reader.unpack("<Q", "step counter")
        text = reader.name("header", "<I")
        encoded = text.encode("utf-8")
        (crc,) = reader.unpack("<I", "checksum")
        if zlib.crc32(struct.pack("<QI", step, len(encoded)) + encoded) != crc:
            raise CheckpointFormatError(f"{path}: step counter or header fails its checksum")
        *values, m, v = [np.frombuffer(payload, dtype="<f8") for _, payload in reader.finish()]
    try:
        header = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise CheckpointFormatError(f"{path}: header is not JSON: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    values = [value.reshape(shape) for value, (_, shape) in zip(values, layout)]
    return Checkpoint(layout, values, (m, v), step, header)


def check_layout(model, found, error, what):
    """The one rule by which a checkpoint fits a model: ``found``, the file's
    ``[(name, shape)]``, equals ``model``'s, order included. Otherwise raises
    ``error``, prefixed with ``what``, naming the first entry that differs."""
    def entry(pair):
        return "nothing" if pair is None else f"parameter {pair[0]!r} of shape {pair[1]}"

    for at, (want, got) in enumerate(itertools.zip_longest(model, found)):
        if want != got:
            raise error(f"{what}: at position {at} the model has {entry(want)}, "
                        f"the file {entry(got)}")


def restore_checkpoint(store, checkpoint):
    """Copy a loaded ``Checkpoint`` into a store of its layout: one copy per
    value, one per moment vector."""
    check_layout([(name, store[name].value.shape) for name in store.names()],
                 checkpoint.layout, ShapeError, "checkpoint")
    for name, value in zip(store.names(), checkpoint.values):
        store[name].value[...] = value
    store.flat_m[...], store.flat_v[...] = checkpoint.moments
    store.flat_grad.fill(0.0)
    store.step = checkpoint.step
