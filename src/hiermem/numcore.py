"""Dense-tensor numeric core with reverse-mode autodiff.

Tensors wrap numpy arrays; differentiable ops record onto an explicit Tape
and ``backward`` replays the tape in reverse execution order exactly once.
``backward`` consumes the tape: it pops each node and clears the gradient
of the node's non-leaf outputs before running it, so an activation or an
intermediate gradient is freed as soon as no remaining node needs it.
Only leaves (``requires_grad=True``) keep their ``.grad``.
The op set is exactly what a decoder-only transformer with attachable
memories needs — nothing more. With no tape active, ops are plain forward
computations (inference mode).

Default precision is float32. The whole stack also runs in float64, which
is how gradients are verified against central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DTYPE = np.float32

# Additive attention masks use true -inf; exp(-inf) == 0.0 exactly, and the
# backward of the attention softmax keeps those slots at an exact zero.
NEG_INF = -np.inf


class ShapeError(ValueError):
    """Operand shapes do not conform. Message names the op and both shapes."""


class GradError(RuntimeError):
    """Backward pass invoked on an invalid target (e.g. non-scalar loss)."""


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``requires_grad`` marks trainable leaves. ``_rec`` marks tensors produced
    by a recorded op on the currently active tape, so gradient flow continues
    through intermediates even when some inputs are frozen.
    """

    __slots__ = ("data", "requires_grad", "grad", "_rec", "_pointwise")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        elif arr.dtype == np.float64 and dtype is None and not isinstance(data, (np.ndarray, np.generic)):
            # Python floats/lists default to the package dtype, but an
            # explicitly float64 ndarray or numpy scalar is left alone
            # (gradient-check mode).
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._rec = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op. ``out`` is a Tensor, or a tuple of Tensors for an op
    with several outputs, whose ``bwd`` then takes a list of their gradients
    (None for an output that received none)."""

    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


_ACTIVE: Tape | None = None


class Tape:
    """Explicit recording context; at most one is active at a time."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False


def _record(out, inputs: list[Tensor], bwd):
    if _ACTIVE is not None and any(t.requires_grad or t._rec for t in inputs):
        for t in out if isinstance(out, tuple) else (out,):
            t._rec = True
        _ACTIVE.nodes.append(_Node(out, inputs, bwd))
    return out


def _take_grad(t: Tensor):
    """``t.grad``, cleared on ``t`` unless ``t`` is a leaf."""
    g = t.grad
    if not t.requires_grad:
        t.grad = None
    return g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse the tape once, accumulating gradients into leaves' ``.grad``.

    ``loss`` must be a scalar produced on this tape (or a leaf, in which
    case there is nothing to do). The tape is consumed: afterwards it holds
    no nodes, every non-leaf ``.grad`` is None, and a second call raises
    ``GradError``.
    """
    if loss.data.size != 1:
        raise GradError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise GradError("backward: this tape was already consumed by an earlier backward")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        if isinstance(node.out, tuple):
            og = [_take_grad(t) for t in node.out]
            if all(g is None for g in og):
                continue
        else:
            og = _take_grad(node.out)
            if og is None:
                continue
        for t, g in zip(node.inputs, node.bwd(og)):
            if g is not None and (t.requires_grad or t._rec):
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
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    na, nb = (a.requires_grad or a._rec), (b.requires_grad or b._rec)

    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None,
        )

    return _record(out, [a, b], bwd)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, [x], bwd)


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b, the gated unit of a SwiGLU feed-forward.

    silu(a) = a * sigmoid(a) is not kept: the backward recomputes it from
    the sigmoid, which it keeps.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"swiglu: shapes {a.data.shape} and {b.data.shape} differ")
    s = np.negative(a.data)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    out = a.data * s
    out *= b.data
    na, nb = (a.requires_grad or a._rec), (b.requires_grad or b._rec)

    def bwd(g):
        ga = gb = None
        if nb:
            gb = a.data * s
            gb *= g
        if na:
            ga = 1.0 - s
            ga *= a.data
            ga += 1.0
            ga *= s
            ga *= g * b.data
        return (ga, gb)

    return _record(Tensor(out), [a, b], bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """x / rms(x) * gain with rms over the last axis.

    ``gain`` may be any shape broadcastable against ``x`` (a plain (d,)
    vector, or (heads, head_dim) for per-head query/key norms).
    """
    n = x.data.shape[-1]
    ms = np.add.reduce(np.square(x.data), axis=-1, keepdims=True)
    ms /= n
    inv = 1.0 / np.sqrt(ms + eps)
    out = x.data * inv
    out *= gain.data
    nx, ng = (x.requires_grad or x._rec), (gain.requires_grad or gain._rec)

    def bwd(g):
        dx = dgain = None
        if nx:
            # inv * gy - x * (inv**3 * sum(gy * x) / n), in gy and one scratch
            dx = g * gain.data
            t = dx * x.data
            c = inv ** 3 * np.add.reduce(t, axis=-1, keepdims=True) / n
            np.multiply(x.data, c, out=t)
            dx *= inv
            dx -= t
        if ng:
            xhat = x.data * inv
            xhat *= g
            dgain = _unbroadcast(xhat, gain.data.shape)
        return (dx, dgain)

    return _record(Tensor(out), [x, gain], bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in lookup of shape {ids.shape}"
        )
    out = Tensor(table.data[ids])

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, [table], bwd)


def split(x: Tensor, sizes: list[int], axis: int = -1) -> list[Tensor]:
    """Views of consecutive ``sizes``-long slices of ``x`` along ``axis``,
    recorded as one node whose backward concatenates the pieces' gradients."""
    ax = axis % x.data.ndim
    if sum(sizes) != x.data.shape[ax]:
        raise ShapeError(f"split: sizes {sizes} do not sum to axis {axis} of {x.data.shape}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for i in range(len(sizes)):
        idx = [slice(None)] * x.data.ndim
        idx[ax] = slice(offsets[i], offsets[i + 1])
        outs.append(Tensor(x.data[tuple(idx)]))
    shapes = [t.data.shape for t in outs]

    def bwd(gs):
        # a piece that got no gradient contributes zeros
        parts = [np.zeros(sh, dtype=x.data.dtype) if g is None else g for g, sh in zip(gs, shapes)]
        return (np.concatenate(parts, axis=ax),)

    return list(_record(tuple(outs), [x], bwd))


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(x.data.shape),)

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
    sa, sb = a.data.shape, b.data.shape
    shared = b.data.ndim == 2
    if shared:
        if a.data.ndim == 0 or sa[-1] != sb[0]:
            raise ShapeError(f"matmul: shapes {sa} @ {sb}")
        a2 = a.data.reshape(-1, sb[0])
        out = Tensor((a2 @ b.data).reshape(sa[:-1] + sb[1:]))
    else:
        try:
            out = Tensor(np.matmul(a.data, b.data))
        except ValueError:
            raise ShapeError(f"matmul: shapes {sa} @ {sb}")
    # captured now: a frozen operand (requires_grad off, not produced on a
    # tape) skips its gradient gemm entirely
    na = a.requires_grad or a._rec
    nb = b.requires_grad or b._rec

    def bwd(g):
        ga = gb = None
        if shared:
            g2 = g.reshape(-1, sb[1])
            if na:
                ga = (g2 @ b.data.T).reshape(sa)
            if nb:
                gb = a2.T @ g2
            return (ga, gb)
        if na:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), sa)
        if nb:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), sb)
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
    dh = q.data.shape[-1]
    if k.data.shape[-1] != dh or v.data.shape[-2] != k.data.shape[-2]:
        raise ShapeError(f"attention: q{q.data.shape} k{k.data.shape} v{v.data.shape}")
    sc = 1.0 / math.sqrt(dh)
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    scores *= sc
    if mask is not None:
        scores += mask
    m = np.max(scores, axis=-1, keepdims=True)
    scores -= m
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    p = scores
    out = Tensor(np.matmul(p, v.data))
    nq, nk, nv = (q.requires_grad or q._rec), (k.requires_grad or k._rec), (v.requires_grad or v._rec)

    def bwd(g):
        gq = gk = gv = None
        if nv:
            gv = _unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), v.data.shape)
        if nq or nk:
            ds = np.matmul(g, np.swapaxes(v.data, -1, -2))
            ds -= np.sum(ds * p, axis=-1, keepdims=True)
            ds *= p
            if nq:
                gq = np.matmul(ds, k.data)
                gq *= sc
                gq = _unbroadcast(gq, q.data.shape)
            if nk:
                gk = np.matmul(np.swapaxes(ds, -1, -2), q.data)
                gk *= sc
                gk = _unbroadcast(gk, k.data.shape)
        return (gq, gk, gv)

    return _record(out, [q, k, v], bwd)


def rope(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotary position application over interleaved feature pairs.

    x: (..., S, dh) with dh even; pair (2i, 2i+1) rotates by angle
    pos * base^(-2i/dh). Norm-preserving; position 0 is the identity.
    """
    dh = x.data.shape[-1]
    if dh % 2:
        raise ShapeError(f"rope: head dim must be even, got {x.data.shape}")
    positions = np.asarray(positions, dtype=np.float64)
    half = dh // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / dh)
    ang = positions[:, None] * inv_freq[None, :]            # (S, dh/2)
    cos = np.cos(ang).astype(x.data.dtype)
    sin = np.sin(ang).astype(x.data.dtype)
    xp = x.data.reshape(x.data.shape[:-1] + (half, 2))
    xe, xo = xp[..., 0], xp[..., 1]
    out_p = np.empty_like(xp)
    out_p[..., 0] = xe * cos - xo * sin
    out_p[..., 1] = xe * sin + xo * cos
    out = Tensor(out_p.reshape(x.data.shape))

    def bwd(g):
        gp = g.reshape(g.shape[:-1] + (half, 2))
        ge, go = gp[..., 0], gp[..., 1]
        gx = np.empty_like(gp)
        gx[..., 0] = ge * cos + go * sin
        gx[..., 1] = -ge * sin + go * cos
        return (gx.reshape(x.data.shape),)

    return _record(out, [x], bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, weight: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the vocabulary (last axis).

    ``targets`` holds class ids shaped like logits minus the last axis;
    ``weight`` (same shape as targets, 0/1 or soft) selects and weights
    positions. Returns a scalar; the pointwise NLL array is stashed on the
    result as ``_pointwise`` for metric reporting (not differentiable).
    """
    V = logits.data.shape[-1]
    flat = logits.data.reshape(-1, V)
    t = np.asarray(targets).reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.data.shape} vs targets {np.asarray(targets).shape}")
    if t.size and (t.min() < 0 or t.max() >= V):
        raise ShapeError(f"cross_entropy: target id out of range [0, {V})")
    w = np.asarray(weight, dtype=flat.dtype).reshape(-1)
    if w.shape != t.shape:  # a broadcast weight would turn the mean into a sum
        raise ShapeError(f"cross_entropy: weight {np.shape(weight)} vs targets {np.asarray(targets).shape}")
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1))
    nll = lse - z[np.arange(flat.shape[0]), t]
    denom = w.sum()
    if denom <= 0:
        raise ShapeError("cross_entropy: weight mask selects no positions")
    out = Tensor(np.asarray((nll * w).sum() / denom, dtype=flat.dtype))
    out._pointwise = nll  # type: ignore[attr-defined]

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(flat.shape[0]), t] -= 1.0
        gl = p * (w * float(g) / denom)[:, None]
        return (gl.reshape(logits.data.shape),)

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
