"""Dense-tensor numeric core with reverse-mode autodiff.

Tensors wrap numpy arrays; differentiable ops record onto an explicit Tape
and ``backward`` replays the tape in reverse execution order exactly once.
The op set is exactly what a decoder-only transformer with attachable
memories needs — nothing more. With no tape active, ops are plain forward
computations (inference mode).

One tape per thread. The active tape is kept per thread: a tape entered in
one thread records only the ops that thread runs, and each thread may have
one active tape of its own. So independent row shards of one batch can run
their forward and backward at the same time on separate threads, each on
its own tape and its own leaves (``train.train_step`` does). Ops share no
other state, and numpy leaves the GIL during its larger array kernels.

What a tape node keeps. A recorded op gives each output a gradient slot.
Its node holds the output slots, one gradient target per input (a leaf,
``requires_grad=True``, is its own target; any other input's target is its
slot, or None when no gradient flows to it) and a backward closure that
captures only the arrays that backward reads. No node holds a Tensor or
its array, so an activation is freed once the forward and every backward
that reads it are done:
- a product with a frozen weight keeps the weight only, not its input;
- ``add``, ``reshape``, ``transpose`` and ``split`` keep shapes or axes,
  and ``rope`` its cosine and sine tables;
- ``cross_entropy`` keeps the max-shifted logits, not the logits;
- ``swiglu`` keeps its two inputs, and its backward recomputes the sigmoid.
``backward`` consumes the tape: it pops each node and takes its output
slots' gradients before running it, so an intermediate gradient is freed
as soon as no remaining node needs it. Only leaves get a ``.grad``.

Where arrays come from. Ops allocate their outputs and temporaries as numpy
does, in training and inference alike, and then work in place on them. The
two loops that repeat same-shaped work, a training run's steps and
``evals.fact_recall``'s decode batches, run their row shards on
``train``'s helper pool, and making that pool sets the C allocator to keep
freed heap pages (see ``train._keep_freed_pages``), so each step or batch
reuses the memory the last one freed instead of faulting in fresh pages.
It also caps the C allocator at one arena before the helper thread starts:
that thread, which runs a step's other half, one row shard after another,
or a prefill's other row shard, allocates from the main heap and frees
into it, so neither thread keeps a high-water heap of its own.

Default precision is float32. The whole stack also runs in float64, which
is how gradients are verified against central finite differences.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Additive attention masks use true -inf; exp(-inf) == 0.0 exactly, and the
# backward of the attention softmax keeps those slots at an exact zero.
NEG_INF = -np.inf


class ShapeError(ValueError):
    """Operand shapes do not conform. Message names the op and both shapes."""


class GradError(RuntimeError):
    """Backward pass invoked on an invalid target (e.g. non-scalar loss)."""


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``requires_grad`` marks trainable leaves. ``_slot`` is the gradient
    slot of a tensor produced by a recorded op, so gradient flow continues
    through intermediates even when some inputs are frozen.
    """

    __slots__ = ("data", "requires_grad", "grad", "_slot", "_pointwise")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._slot = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Slot:
    """The gradient of one recorded output, held apart from its Tensor."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class _Node:
    """One recorded op. ``out`` is a slot, or a tuple of slots for an op
    with several outputs, whose ``bwd`` then takes a list of their gradients
    (None for an output that received none). ``inputs`` holds each input's
    gradient target: a leaf Tensor, a slot, or None."""

    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class _ActiveTape(threading.local):
    """The tape each thread records onto, if any. A thread that never
    entered a tape reads the class default: an attribute it never set
    would cost every op a failed lookup, about 1 µs."""

    tape: Tape | None = None


_ACTIVE = _ActiveTape()


class Tape:
    """Explicit recording context; at most one is active per thread, and it
    records only what its own thread runs."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self):
        if _ACTIVE.tape is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tape = None
        return False


def _tracked(t: Tensor) -> bool:
    """Whether a gradient flows to ``t``: a leaf, or recorded on a tape."""
    return t.requires_grad or t._slot is not None


def _record(out, inputs: list[Tensor], bwd):
    tape = _ACTIVE.tape
    if tape is None:
        return out
    targets = [t if t.requires_grad else t._slot for t in inputs]
    if any(x is not None for x in targets):
        outs = out if isinstance(out, tuple) else (out,)
        slots = tuple(_Slot() for _ in outs)
        for t, s in zip(outs, slots):
            t._slot = s
        tape.nodes.append(_Node(slots if isinstance(out, tuple) else slots[0], targets, bwd))
    return out


def _take_grad(slot: _Slot):
    g = slot.grad
    slot.grad = None
    return g


def _accumulate(t, g: np.ndarray) -> None:
    """Add ``g`` into the gradient of a target (a leaf Tensor or a slot)."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse the tape once, accumulating gradients into leaves' ``.grad``.

    ``loss`` must be a scalar produced on this tape (or a leaf, in which
    case there is nothing to do). The tape is consumed: afterwards it holds
    no nodes, no slot holds a gradient, and a second call raises
    ``GradError``.
    """
    if loss.data.size != 1:
        raise GradError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise GradError("backward: this tape was already consumed by an earlier backward")
    tape.consumed = True
    root = loss if loss.requires_grad else loss._slot
    if root is not None:
        root.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        if isinstance(node.out, tuple):
            og = [_take_grad(s) for s in node.out]
            if all(g is None for g in og):
                continue
        else:
            og = _take_grad(node.out)
            if og is None:
                continue
        for t, g in zip(node.inputs, node.bwd(og)):
            if g is not None and t is not None:
                _accumulate(t, g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    try:
        out = Tensor(np.add(a.data, b.data))
    except ValueError:
        raise ShapeError(f"add: shapes {sa} and {sb} do not broadcast")
    na, nb = _tracked(a), _tracked(b)

    def bwd(g):
        return (
            _unbroadcast(g, sa) if na else None,
            _unbroadcast(g, sb) if nb else None,
        )

    return _record(out, [a, b], bwd)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(np.multiply(x.data, c))

    def bwd(g):
        return (np.multiply(g, c),)

    return _record(out, [x], bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in a new array."""
    s = np.negative(x)
    # exp(-x) overflows to inf for x below about -88 (float32) or -709
    # (float64), and 1 / (1 + inf) is the right sigmoid there: 0
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b, the gated unit of a SwiGLU feed-forward.

    Only the two inputs are kept: the backward recomputes sigmoid(a), by
    the same ops in the same order, so its gradients are those of a kept
    sigmoid bit for bit, and silu(a) = a * sigmoid(a) from it.
    """
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"swiglu: shapes {ad.shape} and {bd.shape} differ")
    out = np.multiply(ad, _sigmoid(ad))
    out *= bd
    na, nb = _tracked(a), _tracked(b)

    def bwd(g):
        ga = gb = None
        s = _sigmoid(ad)
        if nb:
            gb = np.multiply(ad, s)
            gb *= g
        if na:
            ga = np.subtract(1.0, s)
            ga *= ad
            ga += 1.0
            ga *= s
            ga *= np.multiply(g, bd)
        return (ga, gb)

    return _record(Tensor(out), [a, b], bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """x / rms(x) * gain with rms over the last axis.

    ``gain`` may be any shape broadcastable against ``x`` (a plain (d,)
    vector, or (heads, head_dim) for per-head query/key norms).
    """
    xd, gd = x.data, gain.data
    n = xd.shape[-1]
    ms = np.add.reduce(np.square(xd), axis=-1, keepdims=True)
    ms /= n
    inv = 1.0 / np.sqrt(ms + eps)
    out = np.multiply(xd, inv)
    out *= gd
    nx, ng = _tracked(x), _tracked(gain)

    def bwd(g):
        dx = dgain = None
        if nx:
            # inv * gy - x * (inv**3 * sum(gy * x) / n), in gy and one scratch
            dx = np.multiply(g, gd)
            t = np.multiply(dx, xd)
            c = inv ** 3 * np.add.reduce(t, axis=-1, keepdims=True) / n
            np.multiply(xd, c, out=t)
            dx *= inv
            dx -= t
        if ng:
            xhat = np.multiply(xd, inv)
            xhat *= g
            dgain = _unbroadcast(xhat, gd.shape)
        return (dx, dgain)

    return _record(Tensor(out), [x, gain], bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    td = table.data
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {td.shape[0]}) in lookup of shape {ids.shape}"
        )
    out = Tensor(np.take(td, ids, axis=0))
    tshape, tdtype = td.shape, td.dtype

    def bwd(g):
        gt = np.zeros(tshape, dtype=tdtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, [table], bwd)


def split(x: Tensor, sizes: list[int], axis: int = -1) -> list[Tensor]:
    """Views of consecutive ``sizes``-long slices of ``x`` along ``axis``,
    recorded as one node whose backward concatenates the pieces' gradients."""
    xd = x.data
    ax = axis % xd.ndim
    if sum(sizes) != xd.shape[ax]:
        raise ShapeError(f"split: sizes {sizes} do not sum to axis {axis} of {xd.shape}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for i in range(len(sizes)):
        idx = [slice(None)] * xd.ndim
        idx[ax] = slice(offsets[i], offsets[i + 1])
        outs.append(Tensor(xd[tuple(idx)]))
    shapes = [t.data.shape for t in outs]
    xshape, dtype = xd.shape, xd.dtype

    def bwd(gs):
        # a piece that got no gradient contributes zeros
        parts = [np.zeros(sh, dtype=dtype) if g is None else g for g, sh in zip(gs, shapes)]
        return (np.concatenate(parts, axis=ax),)

    return list(_record(tuple(outs), [x], bwd))


def reshape(x: Tensor, shape) -> Tensor:
    xshape = x.data.shape
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(xshape),)

    return _record(out, [x], bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes))
    inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _record(out, [x], bwd)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics, with one GEMM for every shared weight.

    A 2-D ``b`` of shape (k, n) is a weight shared by every row of ``a``
    (…, k): the forward and both gradients run as one 2-D GEMM over
    ``a`` flattened to (rows, k), where ``np.matmul`` would loop one small
    product per leading index. A stacked ``b`` — per-sequence memory
    weights (B, k, n) — uses ``np.matmul`` and its broadcasting.
    """
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    shared = bd.ndim == 2
    if shared:
        if ad.ndim == 0 or sa[-1] != sb[0]:
            raise ShapeError(f"matmul: shapes {sa} @ {sb}")
        ad = ad.reshape(-1, sb[0])
        out = Tensor(np.matmul(ad, bd).reshape(sa[:-1] + sb[1:]))
    else:
        try:
            out = Tensor(np.matmul(ad, bd))
        except ValueError:
            raise ShapeError(f"matmul: shapes {sa} @ {sb}")
    # captured now: a frozen operand (requires_grad off, not produced on a
    # tape) skips its gradient gemm, and the other operand is kept only
    # for that gemm
    na, nb = _tracked(a), _tracked(b)
    bk = bd if na else None
    ak = ad if nb else None

    def bwd(g):
        ga = gb = None
        if shared:
            g2 = g.reshape(-1, sb[1])
            if na:
                ga = np.matmul(g2, bk.T)
                ga = ga.reshape(sa)
            if nb:
                gb = np.matmul(ak.T, g2)
            return (ga, gb)
        if na:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bk, -1, -2)), sa)
        if nb:
            gb = _unbroadcast(np.matmul(np.swapaxes(ak, -1, -2), g), sb)
        return (ga, gb)

    return _record(out, [a, b], bwd)


# ---------------------------------------------------------------------------
# fused attention / rotary / cross-entropy
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with an optional additive mask.

    q: (..., Sq, dh), k/v: (..., Sk, dh); mask broadcasts against the
    (..., Sq, Sk) score matrix and uses -inf for disallowed slots. The
    score scale is 1/sqrt(dh).
    """
    qd, kd, vd = q.data, k.data, v.data
    dh = qd.shape[-1]
    if kd.shape[-1] != dh or vd.shape[-2] != kd.shape[-2]:
        raise ShapeError(f"attention: q{qd.shape} k{kd.shape} v{vd.shape}")
    sc = 1.0 / math.sqrt(dh)
    scores = np.matmul(qd, np.swapaxes(kd, -1, -2))
    scores *= sc
    if mask is not None:
        scores += mask
    m = np.max(scores, axis=-1, keepdims=True)
    scores -= m
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    p = scores
    out = Tensor(np.matmul(p, vd))
    nq, nk, nv = _tracked(q), _tracked(k), _tracked(v)
    # the score gradient reads v; the query's reads k, the key's reads q
    vk = vd if nq or nk else None
    kk = kd if nq else None
    qk = qd if nk else None
    qshape, kshape, vshape = qd.shape, kd.shape, vd.shape

    def bwd(g):
        gq = gk = gv = None
        if nv:
            gv = _unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), vshape)
        if nq or nk:
            ds = np.matmul(g, np.swapaxes(vk, -1, -2))
            ds -= np.sum(np.multiply(ds, p), axis=-1, keepdims=True)
            ds *= p
            if nq:
                gq = np.matmul(ds, kk)
                gq *= sc
                gq = _unbroadcast(gq, qshape)
            if nk:
                gk = np.matmul(np.swapaxes(ds, -1, -2), qk)
                gk *= sc
                gk = _unbroadcast(gk, kshape)
        return (gq, gk, gv)

    return _record(out, [q, k, v], bwd)


def rope(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotary position application over interleaved feature pairs.

    x: (..., S, dh) with dh even; pair (2i, 2i+1) rotates by angle
    pos * base^(-2i/dh). Norm-preserving; position 0 is the identity.
    """
    xd = x.data
    dh = xd.shape[-1]
    if dh % 2:
        raise ShapeError(f"rope: head dim must be even, got {xd.shape}")
    positions = np.asarray(positions, dtype=np.float64)
    half = dh // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / dh)
    ang = positions[:, None] * inv_freq[None, :]            # (S, dh/2)
    cos = np.cos(ang).astype(xd.dtype)
    sin = np.sin(ang).astype(xd.dtype)
    xshape = xd.shape
    xp = xd.reshape(xshape[:-1] + (half, 2))
    xe, xo = xp[..., 0], xp[..., 1]
    out_p = np.empty_like(xp)
    oe, oo = out_p[..., 0], out_p[..., 1]
    # even: xe * cos - xo * sin; odd: xe * sin + xo * cos
    np.multiply(xe, cos, out=oe)
    t = np.multiply(xo, sin)
    np.subtract(oe, t, out=oe)
    np.multiply(xe, sin, out=oo)
    np.multiply(xo, cos, out=t)
    np.add(oo, t, out=oo)
    out = Tensor(out_p.reshape(xshape))

    def bwd(g):
        gp = g.reshape(g.shape[:-1] + (half, 2))
        ge, go = gp[..., 0], gp[..., 1]
        gx = np.empty_like(gp)
        xe_, xo_ = gx[..., 0], gx[..., 1]
        # even: ge * cos + go * sin; odd: -ge * sin + go * cos
        np.multiply(ge, cos, out=xe_)
        u = np.multiply(go, sin)
        np.add(xe_, u, out=xe_)
        np.negative(ge, out=xo_)
        np.multiply(xo_, sin, out=xo_)
        np.multiply(go, cos, out=u)
        np.add(xo_, u, out=xo_)
        return (gx.reshape(xshape),)

    return _record(out, [x], bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, weight: np.ndarray, denom: float) -> Tensor:
    """Weighted mean negative log-likelihood over the vocabulary (last axis).

    ``targets`` holds class ids shaped like logits minus the last axis;
    ``weight`` (same shape as targets, 0/1 or soft) selects and weights
    positions. Returns a scalar: the weighted NLL sum over ``denom``, which
    must be finite and > 0. A whole batch passes its weight sum; a row shard
    of a batch passes the whole batch's weight sum, so its loss is its share
    of the batch mean and its gradient is bit-equal to the unsharded one;
    such a shard may hold only padding. The pointwise NLL array is stashed
    on the result as ``_pointwise`` for metric reporting (not
    differentiable).
    """
    lshape = logits.data.shape
    V = lshape[-1]
    flat = logits.data.reshape(-1, V)
    t = np.asarray(targets).reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ShapeError(f"cross_entropy: logits {lshape} vs targets {np.asarray(targets).shape}")
    if t.size and (t.min() < 0 or t.max() >= V):
        raise ShapeError(f"cross_entropy: target id out of range [0, {V})")
    w = np.asarray(weight, dtype=flat.dtype).reshape(-1)
    if w.shape != t.shape:  # a broadcast weight would turn the mean into a sum
        raise ShapeError(f"cross_entropy: weight {np.shape(weight)} vs targets {np.asarray(targets).shape}")
    m = flat.max(axis=-1, keepdims=True)
    z = np.subtract(flat, m)
    lse = np.log(np.exp(z).sum(axis=-1))
    rows = np.arange(flat.shape[0])
    nll = lse - z[rows, t]
    if not (math.isfinite(denom) and denom > 0):
        raise ShapeError(f"cross_entropy: denominator must be finite and > 0, got {denom}")
    out = Tensor(np.asarray((nll * w).sum() / denom, dtype=flat.dtype))
    out._pointwise = nll  # type: ignore[attr-defined]

    def bwd(g):
        p = np.subtract(z, lse[:, None])
        np.exp(p, out=p)
        p[rows, t] -= 1.0
        p *= (w * float(g) / denom)[:, None]
        return (p.reshape(lshape),)

    return _record(out, [logits], bwd)


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        f = max_norm / norm
        for g in grads:
            g *= f
    return norm
