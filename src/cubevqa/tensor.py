"""Dense-tensor engine with tape-based reverse-mode differentiation.

The primitive set is closed on purpose: the models in this package are
composed of exactly the operations below, so each backward rule can be
audited in isolation. Values are numpy arrays in double precision; a
``Tensor`` is a node holding a forward value and a lazily allocated gradient
buffer, and a ``Tape`` records nodes in execution order so the backward
sweep can replay them in reverse exactly once. Every primitive ends in
``_make``, the one place the tapeless rule lives: with ``tape=None`` a
primitive evaluates without recording. The backward does only work a
parameter needs: a ``constant`` (input data, a mask, a fixed offset) gets
no gradient, and a rule skips the product that would compute one.

Operands are batched: a leading axis ``B`` indexes the instances, and a
single instance is a batch of one (``B = 1``). ``channel_scores``, ``gru``,
``mean_over_rows``, ``weighted_row_sum`` and ``cross_entropy`` take exactly
the batched shapes their docstrings name. The elementwise primitives,
``affine``, ``matvec_last``, ``scale_rows`` and ``softmax`` act on the
trailing axes, whatever axes lead. No other broadcasting exists; the
two sanctioned broadcast forms are ``add_vec``/``mul_vec`` (a vector
combined across the rows of a matrix) and ``add_scalar``.

Four loops use the cores this process may run on (``USABLE_CORES``, read
once from its CPU affinity): the tiles of ``channel_scores``, forward and
backward, the chunks of ``training.adam_step``, the row blocks of every
product of at least ``PRODUCT_MIN_WORK`` multiply-adds (``affine``, forward
and backward, and ``gru``'s ``U`` gradients), of which there are at most
``PRODUCT_BLOCKS``, fixed by the shape, and the gates of each ``gru`` step
of at least ``GATE_MIN_WORK``: the update gate beside the reset gate and
candidate, each product whole. ``run_on_cores`` splits such a loop into one
contiguous run per core and joins its threads before it returns; every run
writes its own slices, and sums across runs are formed in item order, so
results are bit-identical at any core count. ``taskset -c 0`` gives a serial
run with the same bits.

The engine alone decides how many cores a product uses: at import, numpy's
bundled OpenBLAS is pinned to one thread (``numpy.libs``, reached with
``ctypes``), so BLAS threads never compete with the engine's, and the bits
do not depend on ``OPENBLAS_NUM_THREADS``. A forked child inherits the pin.
Where no bundled OpenBLAS can be reached, nothing is pinned: products stay
whole, threaded as BLAS is set to, and the same bits need a one-thread BLAS
set by the user.
"""

import ctypes
import glob
import os
import threading

import numpy as np

DTYPE = np.dtype(np.float64)


# the cores this process may run on, not the host's: ``taskset`` narrows it
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


# the thread-count calls (set, get) of the OpenBLAS a numpy wheel bundles:
# numpy 2.x (libscipy_openblas64_), numpy 1.x (libopenblas64_p), and a build
# with 32-bit indices
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


def _bundled_openblas():
    """The (set, get) thread-count calls of numpy's bundled OpenBLAS, or
    ``None`` where it cannot be reached."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)   # the copy numpy has loaded, not a second one
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_CALLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                return getattr(lib, set_name), getattr(lib, get_name)
    return None


# pinned: large products split over the cores (PRODUCT_MIN_WORK); unpinned,
# they stay whole and BLAS threads them as it is set to
_BLAS = _bundled_openblas()
if _BLAS is not None:
    _BLAS[0](1)


def run_on_cores(items, work):
    """``[work(i, run_i)]`` for contiguous runs of ``items``, one per usable core.

    The first run goes on the calling thread, each other run on a thread
    started and joined within this call (no pool outlives it, so a forked
    child inherits none). The results come back in run order; the first
    exception of any run, in run order, is raised here once all have ended.
    With one item or one core, ``work(0, items)`` is called directly.
    """
    count = min(USABLE_CORES, len(items))
    if count <= 1:
        return [work(0, items)]
    bounds = [len(items) * i // count for i in range(count + 1)]
    results, errors = [None] * count, [None] * count

    def run(i):
        try:
            results[i] = work(i, items[bounds[i]:bounds[i + 1]])
        except BaseException as exc:   # re-raised on the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class InvalidArgumentError(ValueError):
    """An argument violates an operation's preconditions."""


class VocabularyError(ValueError):
    """A token or answer id falls outside the known vocabulary."""


class Tensor:
    """A node in a recorded computation: forward value plus gradient buffer.

    ``grad`` is ``None`` until the backward sweep first writes to it, which is
    equivalent to a zero-initialized buffer, unless the owner binds a buffer
    beforehand (the model's parameter leaves bind their gradient views in the
    parameter arena). Instances are immutable once published to readers; only
    the training loop mutates parameter values, and only between steps. A
    node made by ``constant`` never gets a gradient: its ``grad`` stays
    ``None``, and the backward rules skip the work that would compute it.
    """

    __slots__ = ("value", "grad", "_backward", "_constant")

    def __init__(self, value):
        # fast path: a float64 op output's dtype is the DTYPE object itself
        if type(value) is np.ndarray and value.dtype is DTYPE:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=DTYPE)
        self.grad = None
        self._backward = None
        self._constant = False

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def constant(value):
    """Wrap an array as a leaf node that gets no gradient (input data, masks,
    fixed coefficients)."""
    out = Tensor(value)
    out._constant = True
    return out


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Single-writer: a tape belongs to one logical training thread, and
    ``backward`` may run at most once. A primitive may split its own loop
    over cores (``run_on_cores``), but it records and accumulates on that
    thread. Every node on it carries a backward rule; a tapeless forward
    (``tape=None``, see ``_make``) records nothing.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Propagate d(loss)/d(node) to every node recorded on this tape.

        ``loss`` must be a scalar node produced while recording on this tape.
        Nodes whose value never reached the loss keep ``grad is None``.
        """
        if loss.value.shape != ():
            raise InvalidArgumentError(
                f"backward requires a scalar loss, got shape {loss.value.shape}")
        if self._consumed:
            raise InvalidArgumentError("tape already replayed; record a fresh pass")
        self._consumed = True
        loss.grad = np.ones((), dtype=loss.value.dtype)
        for node in reversed(self._nodes):
            if node.grad is not None:
                node._backward(node.grad)


def _accum(tensor, grad):
    if tensor._constant:
        return
    if tensor.grad is None:
        tensor.grad = np.array(grad, dtype=tensor.value.dtype, copy=True)
    else:
        tensor.grad += grad


def _make(tape, value, backward):
    """Wrap a primitive's output ``value`` as a node. With ``tape=None`` it is
    bare: no backward, recorded nowhere, no reference to the operands.
    Otherwise it carries ``backward`` and is appended to the tape."""
    out = Tensor(value)
    if tape is None:
        return out
    out._backward = backward
    tape._nodes.append(out)
    return out


def _check_finite(value, op):
    if not np.isfinite(value).all():
        raise InvalidArgumentError(f"{op} produced non-finite values")


# ---------------------------------------------------------------------------
# elementwise primitives


def add(tape, a, b):
    """Elementwise sum of two same-shape tensors."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    value = a.value + b.value

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(tape, value, backward)


def add_vec(tape, m, v):
    """Add a vector across the rows of ``m`` (the row-broadcast form).

    ``m`` is ``(..., K, n)`` and ``v`` ``m.shape[:-2] + (n,)``; ``v`` is added
    to every row.
    """
    if m.value.ndim < 2 or v.value.shape != m.value.shape[:-2] + m.value.shape[-1:]:
        raise ShapeError(
            f"add_vec: cannot broadcast vector {v.value.shape} over rows of {m.value.shape}")
    value = m.value + v.value[..., None, :]

    def backward(g):
        _accum(m, g)
        _accum(v, g.sum(axis=-2))

    return _make(tape, value, backward)


def add_scalar(tape, x, s):
    """Add a scalar tensor to every entry of ``x``."""
    if s.value.shape != ():
        raise ShapeError(f"add_scalar: expected scalar, got shape {s.value.shape}")
    value = x.value + s.value

    def backward(g):
        _accum(x, g)
        _accum(s, g.sum())

    return _make(tape, value, backward)


def mul(tape, a, b):
    """Hadamard product of two same-shape tensors."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    value = a.value * b.value

    def backward(g):
        if not a._constant:
            _accum(a, g * b.value)
        if not b._constant:
            _accum(b, g * a.value)

    return _make(tape, value, backward)


def mul_vec(tape, m, v):
    """Multiply the rows of ``m`` elementwise by a vector (``add_vec``'s shapes)."""
    if m.value.ndim < 2 or v.value.shape != m.value.shape[:-2] + m.value.shape[-1:]:
        raise ShapeError(
            f"mul_vec: cannot broadcast vector {v.value.shape} over rows of {m.value.shape}")
    vexp = v.value[..., None, :]
    value = m.value * vexp

    def backward(g):
        if not m._constant:
            _accum(m, g * vexp)
        _accum(v, (g * m.value).sum(axis=-2))

    return _make(tape, value, backward)


def scale_rows(tape, m, w):
    """Scale each row of ``m`` by the matching entry of ``w``.

    ``m`` has shape ``(..., K, n)`` and ``w`` shape ``(..., K)``.
    """
    if m.value.ndim < 2 or w.value.shape != m.value.shape[:-1]:
        raise ShapeError(
            f"scale_rows: weights {w.value.shape} do not match rows of {m.value.shape}")
    wexp = w.value[..., None]
    value = m.value * wexp

    def backward(g):
        if not m._constant:
            _accum(m, g * wexp)
        _accum(w, (g * m.value).sum(axis=-1))

    return _make(tape, value, backward)


def scale(tape, x, c):
    """Multiply by a Python-level constant ``c`` (not a trainable node)."""
    value = x.value * c

    def backward(g):
        _accum(x, g * c)

    return _make(tape, value, backward)


def tanh(tape, x):
    value = np.tanh(x.value)

    def backward(g):
        _accum(x, (1.0 - value * value) * g)

    return _make(tape, value, backward)


# ---------------------------------------------------------------------------
# linear-algebra primitives


# a product of at least PRODUCT_MIN_WORK multiply-adds is cut into row
# blocks of its output: PRODUCT_BLOCKS of them, halved until each has at
# least PRODUCT_BLOCK_ROWS rows; a power of two shares evenly over 2, 4 or 8
# cores. Split against whole on 2 cores at one BLAS thread, value and both
# gradients: the threshold (the region projection at B=4, 144x2048x1024)
# took 0.54-0.61 of the time in two processes; 2^28 (256x1024x1024,
# 512x512x1024, 2048x2048x64) 0.54-1.15, gaining in one process and losing
# in the next; 2^27 (128x1024x1024) 1.2. Every desk-scale and eval product
# (at most ~101M) and the GRU's step products stay below it. Each block
# repacks the whole right operand: 8 blocks of the paper's region
# projection take ~10% longer on 2 cores than 2 blocks, and blocks of 64
# rows lost to whole products at 2^28.
PRODUCT_MIN_WORK = 144 * 2048 * 1024
PRODUCT_BLOCKS = 8
PRODUCT_BLOCK_ROWS = 128


def _product_blocks(a, b):
    """``a @ b`` of two matrices, in row blocks of the output over the cores.

    The cut depends on the shape alone, never on the core count, so each
    block is the same BLAS call however many cores run the blocks
    (``run_on_cores``), and the bits are the same. Each block writes its
    rows of the one output. Callers test the work against PRODUCT_MIN_WORK,
    and that BLAS is pinned, inline: a function call per small product costs
    gradcheck's thousands of small forwards ~3%.
    """
    rows = a.shape[0]
    count = PRODUCT_BLOCKS
    while count > 1 and rows < count * PRODUCT_BLOCK_ROWS:
        count //= 2
    out = np.empty((rows, b.shape[1]))
    blocks = [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]

    def work(_, run):
        for block in run:
            np.matmul(a[block], b, out=out[block])

    run_on_cores(blocks, work)
    return out


def affine(tape, x, w, b=None):
    """``W @ x + b`` over the last axis of ``x``.

    ``x`` has shape ``(..., n)`` with rank >= 1, ``w`` shape ``(m, n)`` and
    optional ``b`` shape ``(m,)``; the output is ``(..., m)``. The leading
    axes run as the rows of one GEMM. All three products (the value and the
    two gradients) have the same work; above PRODUCT_MIN_WORK, each runs in
    row blocks over the cores.
    """
    if w.value.ndim != 2:
        raise ShapeError(f"affine: weight must be a matrix, got shape {w.value.shape}")
    m_dim, n_dim = w.value.shape
    if x.value.ndim < 1 or x.value.shape[-1] != n_dim:
        raise ShapeError(
            f"affine: weight {w.value.shape} expects input of length {n_dim}, got {x.value.shape}")
    if b is not None and b.value.shape != (m_dim,):
        raise ShapeError(
            f"affine: weight {w.value.shape} expects bias of length {m_dim}, got {b.value.shape}")
    # numpy's stacked matmul runs one small product per leading index, ~3x
    # slower than one GEMM at desk-scale shapes
    rows = x.value.reshape(-1, n_dim)
    split = rows.shape[0] * n_dim * m_dim >= PRODUCT_MIN_WORK and _BLAS is not None
    value = (_product_blocks(rows, w.value.T) if split else rows @ w.value.T).reshape(
        x.value.shape[:-1] + (m_dim,))
    if b is not None:
        value += b.value

    def backward(g):
        g_rows = g.reshape(-1, m_dim)
        if not x._constant:
            # passed on unnamed: a name would keep it alive through the
            # weight gradient's product, 18 MB more at the paper's shape
            _accum(x, (_product_blocks(g_rows, w.value) if split
                       else g_rows @ w.value).reshape(x.value.shape))
        _accum(w, _product_blocks(g_rows.T, rows) if split else g_rows.T @ rows)
        if b is not None:
            _accum(b, g_rows.sum(axis=0))

    return _make(tape, value, backward)


def matvec_last(tape, m, v):
    """Contract the last axis of ``m`` with the vector ``v``."""
    if v.value.ndim != 1 or m.value.shape[-1] != v.value.shape[0]:
        raise ShapeError(
            f"matvec_last: cannot contract {m.value.shape} with {v.value.shape}")
    value = m.value @ v.value

    def backward(g):
        _accum(m, g[..., None] * v.value)
        _accum(v, np.tensordot(g, m.value, axes=(tuple(range(g.ndim)),
                                                 tuple(range(g.ndim)))))

    return _make(tape, value, backward)


# entries of the (..., D, h) tanh map the channel scorer holds at once (2 MB)
SCORE_TILE = 1 << 18


def _score_tiles(batch, channels, width):
    """Cover the ``(batch, channels, width)`` map with tiles of <= SCORE_TILE entries.

    Returns ``(examples, channels)`` slice pairs: whole examples while one
    fits in a tile, otherwise channel slices of a single example, never less
    than one channel: a ``width`` above SCORE_TILE gets tiles of that width.
    """
    cols = min(channels, max(SCORE_TILE // width, 1))
    rows = max(SCORE_TILE // (cols * width), 1)
    return [(slice(b0, min(b0 + rows, batch)), slice(d0, min(d0 + cols, channels)))
            for b0 in range(0, batch, rows) for d0 in range(0, channels, cols)]


def channel_scores(tape, vis, query, w):
    """``out[b, d] = sum_j w[j] * tanh(vis[b, d] * query[b, j])``.

    ``vis`` is ``(B, D)``, ``query`` ``(B, h)`` and ``w`` ``(h,)``. The joint
    ``(B, D, h)`` tanh map is worked through in tiles of at most
    ``SCORE_TILE`` entries and never stored: the backward recomputes each
    tile's tanh. The tiles are split over the usable cores (``run_on_cores``),
    each run with its own scratch buffer; a run writes disjoint slices of the
    value and of the ``vis`` gradient, and the ``query`` and ``w`` gradients
    add each tile's part in tile order, so every bit is the same at any core
    count.
    """
    vv, qv, wv = vis.value, query.value, w.value
    if (vv.ndim != 2 or qv.ndim != 2 or vv.shape[0] != qv.shape[0]
            or wv.shape != qv.shape[1:]):
        raise ShapeError(
            f"channel_scores: visual {vv.shape}, query {qv.shape} and weights "
            f"{wv.shape} do not fit")
    if vv.size == 0 or qv.size == 0:
        raise InvalidArgumentError("channel_scores: operands must be nonempty")
    width = wv.shape[0]
    tiles = _score_tiles(vv.shape[0], vv.shape[1], width)
    scratch_size = min(max(SCORE_TILE, width), vv.size * width)

    def tanh_tile(scratch, rows, cols):
        vt, qt = vv[rows, cols], qv[rows]
        buf = scratch[:vt.size * width].reshape(vt.shape + (width,))
        # the same products as a broadcast multiply, in about half the time
        np.einsum("bd,bj->bdj", vt, qt, out=buf)
        return np.tanh(buf, out=buf)

    value = np.empty(vv.shape)

    def forward_run(_, run):
        scratch = np.empty(scratch_size)
        for rows, cols in run:
            value[rows, cols] = np.matmul(tanh_tile(scratch, rows, cols), wv)

    run_on_cores(tiles, forward_run)

    def backward(g):
        wq = qv * wv   # w[j] q[j], the query side of d vis
        gv = g * vv    # g[d] vis[d], the visual side of d query
        d_vis = np.empty(vv.shape)

        def backward_run(_, run):
            scratch = np.empty(scratch_size)
            parts = []   # each tile's (d_w, d_query rows) part
            for rows, cols in run:
                t = tanh_tile(scratch, rows, cols)
                part_w = g[rows, cols].reshape(-1) @ t.reshape(-1, width)
                np.multiply(t, t, out=t)
                u = np.subtract(1.0, t, out=t)   # tanh' of the tile
                d_vis[rows, cols] = g[rows, cols] * np.matmul(u, wq[rows, :, None])[..., 0]
                parts.append((part_w, np.matmul(gv[rows, None, cols], u)[:, 0, :]))
            return parts

        d_query = np.zeros(qv.shape)
        d_w = np.zeros(width)
        runs = run_on_cores(tiles, backward_run)
        for (rows, _), (part_w, part_query) in zip(tiles, (p for r in runs for p in r)):
            d_w += part_w
            d_query[rows] += part_query
        _accum(vis, d_vis)
        _accum(query, d_query * wv)
        _accum(w, d_w)

    return _make(tape, value, backward)


# ---------------------------------------------------------------------------
# recurrent network


# B*H*H, one step product's multiply-adds, at and above which a GRU step
# runs its update gate on a second core beside its reset-and-candidate chain.
# Side by side against serial on 2 cores at one BLAS thread, 8 steps forward
# and backward: 2^22 (B=64, H=256; B=32, H=362) took 0.99-1.05 of the time,
# 2^23 (B=16, H=724; B=32, H=512; B=128, H=256) 0.84-0.99, the paper's 2^25
# (B=32, H=1024) 0.81. Desk (2^16), eval (2^18) and gradcheck (2^6) stay serial.
GATE_MIN_WORK = 1 << 23


def _beside(chain, update):
    """``chain()``'s result, with ``update()`` run beside it on a second core
    (``run_on_cores``: the chain on the calling thread)."""
    return run_on_cores((chain, update), lambda _, tasks: [task() for task in tasks])[0][0]


def _sigmoid(a, out=None):
    # computed through tanh for stability at large |a|; with ``out``, in place
    s = np.multiply(a, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def gru(tape, x_proj, h0, lengths, u_z, u_r, u_c):
    """A GRU run over a batch of sequences, recorded as a single node.

    ``x_proj`` ``(T, B, 3H)`` holds every step's input projection ``W x + b``
    of the update, reset and candidate gates, in that order along its last
    axis. With ``p_z``, ``p_r`` and ``p_c`` the three blocks of ``x_proj[t]``,
    step ``t`` maps the state ``h`` to ``z = sigmoid(p_z + U_z h)``,
    ``r = sigmoid(p_r + U_r h)``, ``c = tanh(p_c + U_c (r * h))`` and
    ``h' = z * h + (1 - z) * c``. ``h0`` is the ``(B, H)`` initial state and
    each ``u_*`` is ``(H, H)``. Row ``b`` takes its first ``lengths[b]``
    steps only: past them it carries its state forward unchanged, and its
    gradient passes straight through. The output is the ``(B, H)`` state
    after the last step.

    The forward keeps every step's state, gates and ``r * h`` in ``(T, B, H)``
    arrays. The backward runs the recurrence in reverse and writes each
    step's gate gradients straight into the gradient of ``x_proj``; it then
    forms each ``U`` gradient as one ``(H, T*B) @ (T*B, H)`` product over all
    steps (Appleyard et al. 2016), in row blocks over the cores above
    PRODUCT_MIN_WORK. The step products stay whole, but from GATE_MIN_WORK
    on, a step's update gate, which needs only ``h``, runs on a second core
    (the "streamed" products of Appleyard et al.): forward ``z`` beside the
    chain ``r -> r * h -> c``, backward ``d_z U_z`` beside ``d_c U_c -> d_r
    -> d_r U_r``. That core writes only into arrays allocated here; the sums
    keep their order, so the bits are those of the serial path.
    """
    hidden = u_z.value.shape[0]
    pv, h0v = x_proj.value, h0.value
    lengths = np.asarray(lengths)
    if (pv.ndim != 3 or pv.shape[2] != 3 * hidden or h0v.shape != (pv.shape[1], hidden)
            or lengths.shape != (pv.shape[1],)
            or not 0 <= lengths.min() <= lengths.max() <= pv.shape[0]):
        raise ShapeError(
            f"gru: projection {pv.shape}, state {h0v.shape} and lengths {lengths} do not "
            f"fit recurrent weights {u_z.value.shape}")
    steps, batch = pv.shape[:2]
    uz, ur, uc = u_z.value, u_r.value, u_c.value
    # carry[t, b]: row b has ended before step t; ``partial`` lists the steps
    # at which some row has, the others need no mask
    carry = (lengths <= np.arange(steps)[:, None])[..., None]
    partial = carry.any(axis=(1, 2)).tolist()
    beside = batch * hidden * hidden >= GATE_MIN_WORK and _BLAS is not None
    hs = np.empty((steps + 1, batch, hidden))   # hs[t] is step t's input state
    zs, rs, cs, rhs = (np.empty((steps, batch, hidden)) for _ in range(4))
    hs[0] = h0v

    def update(h, p_t, z):   # beside the chain, writes only into z
        _sigmoid(np.add(p_t[:, :hidden], np.matmul(h, uz.T, out=z), out=z), out=z)

    def chain(h, p_t, r, rh, c):
        _sigmoid(np.add(p_t[:, hidden:2 * hidden], h @ ur.T, out=r), out=r)
        np.multiply(r, h, out=rh)
        np.tanh(np.add(p_t[:, 2 * hidden:], rh @ uc.T, out=c), out=c)

    for t in range(steps):
        h, p_t, z, r, rh, c = hs[t], pv[t], zs[t], rs[t], rhs[t], cs[t]
        if beside:
            _beside(lambda: chain(h, p_t, r, rh, c), lambda: update(h, p_t, z))
        else:
            update(h, p_t, z)
            chain(h, p_t, r, rh, c)
        h_next = np.multiply(z, h, out=hs[t + 1])
        h_next += (1.0 - z) * c
        if partial[t]:
            np.copyto(h_next, h, where=carry[t])

    def backward(g):
        gx = np.empty(pv.shape)
        dz_uz = np.empty((batch, hidden))   # the update gate's product, beside the chain

        def chain_back(h, r, d_c, d_r):
            d_rh = d_c @ uc
            np.multiply(d_rh * h * r, 1.0 - r, out=d_r)
            return d_rh, d_r @ ur

        d_h = g
        for t in reversed(range(steps)):
            h, z, r, c, g_t = hs[t], zs[t], rs[t], cs[t], gx[t]
            g_step = np.where(carry[t], 0.0, d_h) if partial[t] else d_h
            one_minus_z = 1.0 - z
            d_z = np.multiply(g_step * (h - c) * z, one_minus_z, out=g_t[:, :hidden])
            d_c = np.multiply(g_step * one_minus_z, 1.0 - c * c, out=g_t[:, 2 * hidden:])
            d_r = g_t[:, hidden:2 * hidden]
            if beside:
                d_rh, dr_ur = _beside(lambda: chain_back(h, r, d_c, d_r),
                                      lambda: np.matmul(d_z, uz, out=dz_uz))
            else:
                np.matmul(d_z, uz, out=dz_uz)
                d_rh, dr_ur = chain_back(h, r, d_c, d_r)
            d_prev = g_step * z + d_rh * r + dz_uz + dr_ur
            d_h = np.where(carry[t], d_h, d_prev) if partial[t] else d_prev
        _accum(h0, d_h)
        rows = gx.reshape(steps * batch, 3 * hidden)
        states = hs[:steps].reshape(-1, hidden)
        split = steps * batch * hidden * hidden >= PRODUCT_MIN_WORK and _BLAS is not None
        for u, d_gate, inputs in ((u_z, rows[:, :hidden], states),
                                  (u_r, rows[:, hidden:2 * hidden], states),
                                  (u_c, rows[:, 2 * hidden:], rhs.reshape(-1, hidden))):
            _accum(u, _product_blocks(d_gate.T, inputs) if split else d_gate.T @ inputs)
        if x_proj.grad is None and not x_proj._constant:
            x_proj.grad = gx   # the buffer is this node's own: no copy
        else:
            _accum(x_proj, gx)

    return _make(tape, hs[steps], backward)


# ---------------------------------------------------------------------------
# reductions and normalizers


def softmax(tape, x, valid=None):
    """Shift-stable softmax over the last axis.

    Output entries sum to one along that axis and are strictly positive
    whenever the score spread stays under ~745 (beyond that, exp underflows
    to zero even in double precision; the max-shift keeps the large end
    finite for any input magnitude). ``valid``, a boolean mask of ``x``'s
    shape, is a key-padding mask: entries outside it are set to ``-inf``
    before the max-shift, so they get weight exactly 0 and gradient 0. Every
    row must keep at least one valid entry.
    """
    if x.value.size == 0:
        raise InvalidArgumentError("softmax: input is empty")
    scores = x.value if valid is None else np.where(valid, x.value, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=-1, keepdims=True)
    _check_finite(value, "softmax")

    def backward(g):
        inner = (g * value).sum(axis=-1, keepdims=True)
        _accum(x, value * (g - inner))

    return _make(tape, value, backward)


def mean_over_rows(tape, m, counts):
    """Mean of each instance's real rows: ``(B, K, n) -> (B, n)``.

    ``counts`` ``(B, 1)`` holds each instance's own row count as a column:
    only its first ``counts`` rows are real, the rows past them must be zero,
    and the row sum is divided by the count instead of K.
    """
    if m.value.ndim != 3 or counts.shape != (m.value.shape[0], 1):
        raise ShapeError(f"mean_over_rows: expected a (B, K, n) batch and (B, 1) "
                         f"counts, got {m.value.shape} and {counts.shape}")
    if m.value.shape[1] == 0:
        raise InvalidArgumentError("mean_over_rows: matrix has no rows")
    value = m.value.sum(axis=-2) / counts

    def backward(g):
        if not m._constant:
            _accum(m, np.broadcast_to((g / counts)[..., None, :], m.value.shape))

    return _make(tape, value, backward)


def weighted_row_sum(tape, m, w, prefactor):
    """``prefactor[b] * sum_k w[b, k] * m[b, k, :]``: ``(B, K, n) -> (B, n)``.

    ``w`` is ``(B, K)`` and ``prefactor`` ``(B,)``, one constant per instance.
    """
    if (m.value.ndim != 3 or w.value.shape != m.value.shape[:-1]
            or prefactor.shape != m.value.shape[:1]):
        raise ShapeError(
            f"weighted_row_sum: weights {w.value.shape} and prefactor {prefactor.shape} "
            f"do not match rows of {m.value.shape}")
    factor = prefactor[:, None]
    value = factor * np.einsum("bk,bkn->bn", w.value, m.value)

    def backward(g):
        if not m._constant:
            _accum(m, factor[..., None] * w.value[..., None] * g[..., None, :])
        _accum(w, factor * (m.value * g[..., None, :]).sum(axis=-1))

    return _make(tape, value, backward)


def mean_all(tape, x):
    """Scalar mean over every entry of ``x`` (batch-loss reduction)."""
    if x.value.size == 0:
        raise InvalidArgumentError("mean_all: input is empty")
    n = x.value.size
    value = x.value.sum() / n

    def backward(g):
        _accum(x, np.full(x.value.shape, g / n, dtype=x.value.dtype))

    return _make(tape, value, backward)


# ---------------------------------------------------------------------------
# lookup and loss


def embedding_lookup(tape, table, ids):
    """Select rows of an embedding table by integer id.

    Mathematically identical to multiplying the table by one-hot vectors.
    ``ids`` is an integer array of rank >= 1, such as a ``(B, T)`` batch of
    token sequences; the output is ``ids.shape + (E,)``.
    """
    ids = np.asarray(ids)
    if table.value.ndim != 2 or ids.ndim < 1:
        raise ShapeError(f"embedding_lookup: table {table.value.shape} must be a matrix "
                         f"and ids {ids.shape} at least a vector")
    vocab = table.value.shape[0]
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise VocabularyError(
            f"embedding_lookup: id {int(ids[at])} at position "
            f"{at[0] if ids.ndim == 1 else at} outside vocabulary of size {vocab}")
    value = table.value[ids]

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        np.add.at(table.grad, ids, g)

    return _make(tape, value, backward)


def cross_entropy(tape, scores, labels):
    """Per-example negative log-likelihood of ``labels`` under softmax of ``scores``.

    ``scores`` is ``(B, A)`` and ``labels`` ``(B,)``; the output is the
    ``(B,)`` loss vector. Fused log-sum-exp form; never materializes
    probabilities in the forward value.
    """
    labels = np.asarray(labels)
    if scores.value.ndim != 2 or labels.shape != scores.value.shape[:1]:
        raise ShapeError(
            f"cross_entropy: labels {labels.shape} do not match (B, A) scores "
            f"{scores.value.shape}")
    a = scores.value.shape[1]
    bad = (labels < 0) | (labels >= a)
    if bad.any():
        raise InvalidArgumentError(
            f"cross_entropy: label {int(labels[bad][0])} outside {a} classes")
    rows = np.arange(labels.size)
    shifted = scores.value - scores.value.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    value = log_z - shifted[rows, labels]
    _check_finite(value, "cross_entropy")

    def backward(g):
        e = np.exp(shifted)
        p = e / e.sum(axis=-1, keepdims=True)
        p[rows, labels] -= 1.0
        _accum(scores, g[:, None] * p)

    return _make(tape, value, backward)


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(f, params, grads, eps=1e-5):
    """Compare analytic gradients against central differences of ``f``.

    ``f`` is a zero-argument callable returning a float and closing over the
    arrays in ``params`` (name -> ndarray, perturbed in place during probing).
    ``grads`` maps the same names to the analytic gradient arrays. Returns
    ``(max_relative_error, per_name)`` where each coordinate's error is
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    if not (0.0 < eps <= 1e-2):
        raise InvalidArgumentError(f"finite_difference_check: eps {eps} outside (0, 1e-2]")
    per_name = {}
    worst = 0.0
    for name, array in params.items():
        analytic = grads[name]
        if analytic.shape != array.shape:
            raise ShapeError(
                f"finite_difference_check: gradient shape {analytic.shape} does not "
                f"match parameter {name} shape {array.shape}")
        flat = array.reshape(-1)
        aflat = analytic.reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f())
            flat[i] = orig - eps
            f_minus = float(f())
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise InvalidArgumentError(
                    f"finite_difference_check: non-finite evaluation while probing {name}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1.0, abs(aflat[i]), abs(numeric))
            err = abs(aflat[i] - numeric) / denom
            if err > worst_here:
                worst_here = err
        per_name[name] = worst_here
        worst = max(worst, worst_here)
    return worst, per_name
