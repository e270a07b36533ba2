import sys
import threading
import weakref

import numpy as np
import pytest

from hiermem import numcore as nc
from hiermem import refcheck as rc


def fd_check(build, params, rel=1e-6, h=1e-5):
    """Analytic grads of scalar build(tensors) vs central differences."""
    tensors = [nc.Tensor(p.astype(np.float64), requires_grad=True) for p in params]
    with nc.Tape() as tape:
        loss = build(tensors)
    nc.backward(tape, loss)
    assert tape.nodes == []

    def f(ps):
        ts = [nc.Tensor(p.astype(np.float64)) for p in ps]
        return float(build(ts).data)

    ref = rc.oracle_grad(f, [p.copy() for p in params], h=h)
    for t, r in zip(tensors, ref):
        denom = max(np.abs(r).max(), 1e-8)
        assert t.grad is not None
        assert np.abs(t.grad - r).max() / denom < rel, np.abs(t.grad - r).max() / denom


def total(t):
    """Scalar sum of every entry, built from the ops the model uses."""
    n = t.data.size
    ones = nc.Tensor(np.ones((n, 1), dtype=t.data.dtype))
    return nc.reshape(nc.matmul(nc.reshape(t, (1, n)), ones), ())


def dot(t, w):
    """Scalar sum of t * w for same-shaped t and w, from reshape and matmul."""
    n = t.data.size
    return nc.reshape(nc.matmul(nc.reshape(t, (1, n)), nc.reshape(w, (n, 1))), ())


rng = np.random.default_rng(7)


def test_add_mul_broadcast_grads():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    fd_check(lambda ts: dot(nc.add(ts[0], ts[1]), ts[0]), [a, b])


def test_matmul_grads_both_orientations():
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    fd_check(lambda ts: total(nc.matmul(ts[0], ts[1])), [a, b])
    bt = rng.normal(size=(2, 5))
    fd_check(lambda ts: total(nc.matmul(ts[0], nc.transpose(ts[1], (1, 0)))), [a, bt])


@pytest.mark.parametrize("a_shape", [(2, 3, 5), (2, 2, 3, 5)])
def test_shared_weight_matmul_grads(a_shape):
    # a 2-D b runs as one GEMM over every leading index of a
    a = rng.normal(size=a_shape)
    b = rng.normal(size=(5, 4))
    w = nc.Tensor(rng.normal(size=a_shape[:-1] + (4,)))
    fd_check(lambda ts: dot(nc.matmul(ts[0], ts[1]), w), [a, b])


def test_shared_weight_matmul_on_a_transposed_view():
    a = rng.normal(size=(3, 2, 5))
    b = rng.normal(size=(5, 4))
    w = nc.Tensor(rng.normal(size=(2, 3, 4)))
    fd_check(lambda ts: dot(nc.matmul(nc.transpose(ts[0], (1, 0, 2)), ts[1]), w), [a, b])
    out = nc.matmul(nc.transpose(nc.Tensor(a), (1, 0, 2)), nc.Tensor(b))
    assert np.allclose(out.data, np.matmul(a.transpose(1, 0, 2), b))


def test_shared_weight_matmul_float32_forward_and_weight_grad():
    a = rng.normal(size=(64, 3, 128)).astype(np.float32)
    b = rng.normal(size=(128, 96)).astype(np.float32)
    g = rng.normal(size=(64, 3, 96)).astype(np.float32)
    at, bt = nc.Tensor(a, requires_grad=True), nc.Tensor(b, requires_grad=True)
    with nc.Tape() as tape:
        out = nc.matmul(at, bt)
        loss = dot(out, nc.Tensor(g))  # the gradient reaching out is exactly g
    nc.backward(tape, loss)
    ref = np.matmul(a, b)
    assert out.data.dtype == np.float32
    assert np.abs(out.data - ref).max() <= 1e-6 * np.abs(ref).max()
    assert np.array_equal(bt.grad, a.reshape(-1, 128).T @ g.reshape(-1, 96))
    assert at.grad.shape == a.shape


def test_silu_softmax_rmsnorm_grads():
    x = rng.normal(size=(2, 6))
    g = rng.normal(size=(6,)) + 1.0
    fd_check(lambda ts: total(nc.swiglu(ts[0], nc.Tensor(np.ones_like(x)))), [x])
    fd_check(lambda ts: total(nc.rms_norm(ts[0], ts[1])), [x, g])


def test_swiglu_grads():
    a = rng.normal(size=(2, 3, 5))
    b = rng.normal(size=(2, 3, 5))
    w = nc.Tensor(rng.normal(size=(2, 3, 5)))
    fd_check(lambda ts: dot(nc.swiglu(ts[0], ts[1]), w), [a, b])


def test_swiglu_float32_matches_silu_then_mul_bitwise():
    a = rng.normal(size=(4, 7, 32)).astype(np.float32) * 3
    b = rng.normal(size=(4, 7, 32)).astype(np.float32)
    g = rng.normal(size=(4, 7, 32)).astype(np.float32)
    at, bt = nc.Tensor(a, requires_grad=True), nc.Tensor(b, requires_grad=True)
    with nc.Tape() as tape:
        out = nc.swiglu(at, bt)
        loss = dot(out, nc.Tensor(g))  # the gradient reaching out is exactly g
    nc.backward(tape, loss)
    # silu(a) = a * s with s = 1 / (1 + exp(-a)), then a product with b
    s = np.negative(a)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    silu = a * s
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data, silu * b)
    assert np.array_equal(bt.grad, g * silu)
    assert np.array_equal(at.grad, ((((1.0 - s) * a) + 1.0) * s) * (g * b))


def test_swiglu_shape_mismatch_is_loud():
    with pytest.raises(nc.ShapeError, match=r"swiglu: shapes \(2, 3\) and \(3,\)"):
        nc.swiglu(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones(3)))


def test_attention_grads_with_mask():
    q = rng.normal(size=(1, 2, 4, 8))
    k = rng.normal(size=(1, 2, 4, 8))
    v = rng.normal(size=(1, 2, 4, 8))
    mask = np.triu(np.full((4, 4), -np.inf), k=1)
    fd_check(lambda ts: total(nc.attention(ts[0], ts[1], ts[2], mask=mask)), [q, k, v], rel=1e-5)


def test_rope_grads_and_norm_preservation():
    x = rng.normal(size=(1, 2, 5, 8))
    pos = np.arange(5)
    fd_check(lambda ts: dot(nc.rope(ts[0], pos, 100.0), ts[0]), [x])
    # rotations preserve the norm of every pair
    out = nc.rope(nc.Tensor(x), pos, 100.0)
    assert np.allclose(np.linalg.norm(out.data, axis=-1), np.linalg.norm(x, axis=-1))


def test_rotary_positions_are_relative():
    q = rng.normal(size=(1, 2, 6, 8))
    k = rng.normal(size=(1, 2, 6, 8))

    def scores(pos):
        qr, kr = nc.rope(nc.Tensor(q), pos, 100.0), nc.rope(nc.Tensor(k), pos, 100.0)
        return qr.data @ np.swapaxes(kr.data, -1, -2)

    a = scores(np.arange(6))
    # a uniform shift leaves every pairwise offset, hence every q.k, unchanged
    assert np.abs(a - scores(np.arange(3, 9))).max() < 1e-9
    # stretching the gaps does not
    assert np.abs(a - scores(np.arange(6) * 4)).max() > 1e-4


def test_cross_entropy_matches_manual_and_weights():
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    w = np.array([1, 1, 0, 1, 0], dtype=np.float64)
    fd_check(lambda ts: nc.cross_entropy(ts[0], targets, w, w.sum()), [logits])
    t = nc.Tensor(logits)
    loss = nc.cross_entropy(t, targets, w, w.sum())
    z = logits - logits.max(axis=1, keepdims=True)
    nll = np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), targets]
    assert np.isclose(float(loss.data), (nll * w).sum() / w.sum())
    # a weight mask that selects no position has no mean
    with pytest.raises(nc.ShapeError, match="denominator must be finite and > 0"):
        nc.cross_entropy(t, targets, np.zeros(5), np.zeros(5).sum())


def test_cross_entropy_over_a_batch_denominator():
    logits = rng.normal(size=(4, 7)).astype(np.float32)
    targets = rng.integers(0, 7, size=4)
    w = np.array([1, 1, 0, 0], dtype=np.float32)
    whole = nc.Tensor(logits, requires_grad=True)
    with nc.Tape() as tape:
        loss = nc.cross_entropy(whole, targets, w, w.sum())
    nc.backward(tape, loss)
    # two row shards, each over the whole batch's weight sum; the second
    # selects no position of its own
    parts, losses = [nc.Tensor(logits[r], requires_grad=True) for r in (slice(0, 2), slice(2, 4))], []
    for part, r in zip(parts, (slice(0, 2), slice(2, 4))):
        with nc.Tape() as tape:
            losses.append(nc.cross_entropy(part, targets[r], w[r], w.sum()))
        nc.backward(tape, losses[-1])
    assert float(losses[1].data) == 0.0
    assert np.isclose(sum(float(x.data) for x in losses), float(loss.data), rtol=1e-6)
    assert np.array_equal(np.concatenate([p.grad for p in parts]), whole.grad)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(nc.ShapeError, match="denominator must be finite and > 0"):
            nc.cross_entropy(parts[0], targets[:2], w[:2], bad)


def test_cross_entropy_weight_must_match_targets():
    logits = nc.Tensor(np.zeros((2, 3, 5)))
    targets = np.zeros((2, 3), dtype=np.int64)
    assert np.isclose(float(nc.cross_entropy(logits, targets, np.ones((2, 3)), 6.0).data), np.log(5))
    for weight in (np.ones(1), np.ones(4), np.ones((3, 2, 1, 2))):  # broadcast, short, too many
        with pytest.raises(nc.ShapeError, match="weight"):
            nc.cross_entropy(logits, targets, weight, weight.sum())


def test_embedding_scatter_grad():
    table = rng.normal(size=(6, 3))
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    t = nc.Tensor(table, requires_grad=True)
    with nc.Tape() as tape:
        loss = dot(nc.embedding(t, ids), nc.Tensor(np.ones((2, 3, 3))))
    nc.backward(tape, loss)
    expect = np.zeros_like(table)
    np.add.at(expect, ids.reshape(-1), np.ones((6, 3)))
    assert np.allclose(t.grad, expect)


def test_concat_split_reshape_transpose_roundtrip_grads():
    x = rng.normal(size=(2, 8))

    def build(ts):
        p1, p2 = nc.split(ts[0], [3, 5], axis=-1)
        r = nc.reshape(nc.transpose(p2, (1, 0)), (10,))
        return nc.add(dot(p1, p1), total(r))

    fd_check(build, [x])


def test_backward_consumes_the_tape():
    x = rng.normal(size=(2, 3, 8))
    w = rng.normal(size=(8, 8))
    gain = rng.normal(size=(4,)) + 1.0

    def build(ts):
        h = nc.matmul(ts[0], ts[1])
        p1, p2 = nc.split(h, [4, 4], axis=-1)
        return dot(nc.swiglu(nc.rms_norm(p1, ts[2]), p2), p1)

    leaves = [nc.Tensor(p.astype(np.float64), requires_grad=True) for p in (x, w, gain)]
    with nc.Tape() as tape:
        loss = build(leaves)
    outs = [t for node in tape.nodes for t in (node.out if isinstance(node.out, tuple) else (node.out,))]
    assert len(outs) > len(tape.nodes)  # split recorded one node for both pieces
    nc.backward(tape, loss)
    assert tape.nodes == []
    assert all(t.grad is None for t in outs)
    assert all(t.grad is not None for t in leaves)
    with pytest.raises(nc.GradError, match="consumed"):
        nc.backward(tape, loss)
    fd_check(build, [x, w, gain])


def test_split_piece_without_gradient_gets_zeros():
    x = nc.Tensor(rng.normal(size=(2, 9)), requires_grad=True)
    w1, w3 = rng.normal(size=(2, 2)), rng.normal(size=(2, 4))
    with nc.Tape() as tape:
        p1, p2, p3 = nc.split(x, [2, 3, 4], axis=1)
        loss = nc.add(dot(p1, nc.Tensor(w1)), dot(p3, nc.Tensor(w3)))
    nc.backward(tape, loss)
    expect = np.zeros((2, 9))
    expect[:, :2] = w1
    expect[:, 5:] = w3
    assert np.array_equal(x.grad, expect)
    # no piece reached by the loss: the split contributes nothing
    y = nc.Tensor(rng.normal(size=(2, 9)), requires_grad=True)
    with nc.Tape() as tape:
        nc.split(y, [4, 5], axis=1)
        loss = dot(x, x)
    nc.backward(tape, loss)
    assert y.grad is None


def test_frozen_operand_skips_gradient():
    for x_shape in ((2, 4), (2, 3, 4)):
        for frozen in ("x", "w"):
            x = nc.Tensor(rng.normal(size=x_shape), requires_grad=frozen != "x")
            w = nc.Tensor(rng.normal(size=(4, 4)), requires_grad=frozen != "w")
            with nc.Tape() as tape:
                loss = total(nc.matmul(x, w))
            nc.backward(tape, loss)
            assert (x.grad is None, w.grad is None) == (frozen == "x", frozen == "w")


def test_frozen_gemm_input_is_freed_after_the_forward():
    x = rng.normal(size=(2, 3, 8))
    w_frozen = nc.Tensor(rng.normal(size=(8, 8)))
    gain = nc.Tensor(rng.normal(size=(8,)) + 1.0)
    kept = {}

    def memory(t):
        """A weak reference to the array that owns ``t``'s memory."""
        return weakref.ref(t.data if t.data.base is None else t.data.base)

    def build(ts):
        h = nc.rms_norm(ts[0], gain)
        kept["h"] = memory(h)
        y = nc.matmul(h, w_frozen)    # reads only the weight for dh
        z = nc.matmul(y, ts[1])       # reads y for the weight's gradient
        kept["y"] = memory(y)
        return dot(z, z)

    tensors = [nc.Tensor(p.astype(np.float64), requires_grad=True) for p in (x, rng.normal(size=(8, 4)))]
    with nc.Tape() as tape:
        loss = build(tensors)
    assert kept["h"]() is None    # no node keeps the frozen product's input
    assert kept["y"]() is not None  # the trainable one's stays until backward
    nc.backward(tape, loss)
    assert kept["y"]() is None
    fd_check(build, [x, tensors[1].data])


def test_tapes_do_not_nest():
    x = nc.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    with nc.Tape() as tape:
        with pytest.raises(RuntimeError, match="already active"):
            with nc.Tape():
                pass
        loss = dot(x, x)  # the outer tape still records
    nc.backward(tape, loss)
    assert np.allclose(x.grad, 2 * x.data)
    with nc.Tape():  # and it was released on exit
        pass


def test_a_tape_records_only_its_own_thread():
    x = nc.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    seen = {}

    def other_thread():
        seen["untaped"] = dot(x, x)  # this thread has no tape: a plain forward
        with nc.Tape() as tape:  # a tape of its own, beside the main thread's
            seen["tape"] = tape
            dot(x, x)
            try:
                with nc.Tape():
                    pass
            except RuntimeError as e:  # nesting still raises within a thread
                seen["nested"] = str(e)

    with nc.Tape() as tape:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert tape.nodes == []
        loss = dot(x, x)
    assert seen["untaped"]._slot is None and seen["tape"].nodes
    assert "already active" in seen["nested"]
    nc.backward(tape, loss)
    assert np.allclose(x.grad, 2 * x.data)


def test_threads_backward_their_own_tapes():
    # more threads than CPUs, switching often: a node recorded onto another
    # thread's tape, or a gradient lost between them, changes a count or a gradient
    data = [rng.normal(size=(6, 5)) for _ in range(4)]
    w = rng.normal(size=(5, 4))

    def leaf_grads(threaded):
        xs = [nc.Tensor(d, requires_grad=True) for d in data]
        ws = [nc.Tensor(w, requires_grad=True) for _ in data]
        all_recorded = threading.Barrier(len(data) if threaded else 1, timeout=30)
        nodes = [0] * len(data)

        def run(i):
            with nc.Tape() as tape:
                for _ in range(20):
                    y = nc.swiglu(nc.matmul(xs[i], ws[i]), nc.matmul(xs[i], ws[i]))
                loss = dot(y, y)
            nodes[i] = len(tape.nodes)
            all_recorded.wait()  # every tape is recorded before any is reversed
            nc.backward(tape, loss)

        if not threaded:
            for i in range(len(data)):
                run(i)
            return nodes, [t.grad for t in xs + ws]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(len(data))]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        return nodes, [t.grad for t in xs + ws]

    nodes, grads = leaf_grads(True)
    ref_nodes, ref_grads = leaf_grads(False)
    assert nodes == ref_nodes
    for a, b in zip(grads, ref_grads, strict=True):
        assert a is not None and np.array_equal(a, b)


def test_zero_dim_float64_result_is_not_downcast():
    # numpy scalars coming out of 0-d arithmetic must keep their dtype
    a = nc.Tensor(np.float64(2.0))
    out = nc.add(a, a)
    assert out.data.dtype == np.float64
    assert nc.Tensor(np.float64(1.5)).data.dtype == np.float64


def test_clip_global_norm_scales_in_place():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    norm = nc.clip_global_norm([g1, g2], 1.0)
    assert np.isclose(norm, 5.0)
    assert np.isclose(np.sqrt(np.sum(g1**2) + np.sum(g2**2)), 1.0)
    # under the limit: untouched
    g = np.array([0.3])
    assert np.isclose(nc.clip_global_norm([g], 1.0), 0.3)
    assert g[0] == 0.3


def test_shape_errors_are_loud():
    with pytest.raises(nc.ShapeError):
        nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((4, 2))))
    with pytest.raises(nc.ShapeError, match=r"\(2, 3, 5\) @ \(4, 2\)"):
        nc.matmul(nc.Tensor(np.ones((2, 3, 5))), nc.Tensor(np.ones((4, 2))))
    with pytest.raises(nc.ShapeError):
        nc.cross_entropy(nc.Tensor(np.ones((2, 3))), np.array([0, 3]), np.ones(2), 2.0)


def test_composite_f64_pipeline_close_to_fd():
    # a small end-to-end graph touching most ops at once
    x = rng.normal(size=(2, 4, 8))
    w = rng.normal(size=(8, 8))
    gain = np.ones(8)

    def build(ts):
        h = nc.rms_norm(ts[0], ts[2])
        h = nc.matmul(h, ts[1])
        h = nc.swiglu(h, nc.Tensor(np.ones_like(h.data)))
        return dot(h, h)

    fd_check(build, [x, w, gain], rel=1e-5)
