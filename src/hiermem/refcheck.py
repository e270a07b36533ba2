"""Independent reference oracles for the test suite.

Everything here is deliberately written the slow, obvious way — one
document at a time with Python integer hashing, full-batch Lloyd's
iterations, brute-force nearest neighbour, central finite
differences, straight-line per-position transformer evaluation, greedy
decode by rerunning the whole sequence — so that the fast implementations
elsewhere in the package can be checked against code that shares none of
their structure. The decode oracle is the exception: it reuses the
package's forward, which ``oracle_forward`` checks, and drops only the
key/value cache. Nothing in the package imports this module; only tests do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as mdl


@dataclass
class OracleResult:
    """A reference value plus a note saying which reference path produced it."""

    value: object
    note: str


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _ref_splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def oracle_embed(texts: list[str], cfg) -> OracleResult:
    """Hashed n-gram embedding of each text on its own, in Python integers.

    Per text: lower-case, collapse whitespace, UTF-8 encode; for every
    n-gram size and every length-n byte window, a polynomial hash mod 2**64
    (multiplier 0x100000001B3, start ``seed * 0x9E3779B9 + n``) finished by
    splitmix64 picks bucket ``h % dim`` and sign ``-1`` if bit 63 is set.
    The integer counts are scaled to unit float32 norm, the norm being
    numpy's on the float32 vector.
    """
    out = np.zeros((len(texts), cfg.dim), dtype=np.float32)
    for row, text in enumerate(texts):
        data = " ".join(text.lower().split()).encode("utf-8")
        counts = [0] * cfg.dim
        for n in cfg.ngram_sizes:
            for start in range(len(data) - n + 1):
                h = (cfg.seed * 0x9E3779B9 + n) & _M64
                for byte in data[start : start + n]:
                    h = (h * 0x100000001B3 + byte) & _M64
                h = _ref_splitmix64(h)
                counts[h % cfg.dim] += -1 if h >> 63 else 1
        vec = np.array(counts, dtype=np.float32)
        norm = float(np.linalg.norm(vec))
        out[row] = vec / norm if norm > 0 else vec
    return OracleResult(out, "per-text loop over every window in Python integers")


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def oracle_kmeans(points: np.ndarray, k: int, seed: int, max_iters: int = 1000) -> OracleResult:
    """Full-batch Lloyd's algorithm run to convergence, k-means++ seeding.

    Returns OracleResult(value=(assignments, centers)). Intended for small,
    well-separated inputs where Lloyd's finds the natural partition.
    """
    rng = np.random.default_rng(seed)
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    first = int(rng.integers(n))
    centers[0] = pts[first]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        idx = int(rng.choice(n, p=probs))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        dists = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        for j in range(k):
            sel = pts[new_assign == j]
            if len(sel):
                centers[j] = sel.mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return OracleResult((assign, centers), "full-batch Lloyd's to convergence")


def oracle_nearest_leaf(point: np.ndarray, leaf_centers: np.ndarray) -> OracleResult:
    """Brute-force nearest leaf over every leaf center (no tree descent)."""
    d2 = np.sum((np.asarray(leaf_centers, dtype=np.float64) - np.asarray(point, dtype=np.float64)) ** 2, axis=1)
    return OracleResult(int(np.argmin(d2)), "exhaustive scan over all leaves")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def oracle_grad(f, params: list[np.ndarray], h: float = 1e-5) -> OracleResult:
    """Central finite differences of scalar f(params) w.r.t. every entry.

    f receives the parameter list and returns a float. Entries are
    perturbed one at a time; gradients come back as arrays matching each
    parameter's shape.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(params)
            flat[i] = orig - h
            fm = f(params)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return OracleResult(grads, f"central differences, h={h}")


# ---------------------------------------------------------------------------
# model forward
# ---------------------------------------------------------------------------

def _ref_rms(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain


def _ref_softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def oracle_forward(tokens: np.ndarray, weights: dict, cfg: dict) -> OracleResult:
    """Straight-line decoder forward for one unbatched token sequence.

    ``weights`` maps the canonical parameter names (tok_embeddings.weight,
    layers.{i}.attn_norm.gain, .wq/.wk/.wv/.wo, .q_norm.gain, .k_norm.gain,
    .ffn_norm.gain, .w1/.w2/.w3, final_norm.gain, head.weight when untied)
    to numpy arrays. ``cfg`` needs num_layers, num_heads, head_dim, ffn_dim,
    rope_base, norm_eps, tied_head. Evaluates in float64 with explicit
    per-position and per-head loops; returns logits (S, V).
    """
    L = cfg["num_layers"]
    heads = cfg["num_heads"]
    dh = cfg["head_dim"]
    eps = cfg["norm_eps"]
    base = cfg["rope_base"]
    w = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    toks = np.asarray(tokens).reshape(-1)
    S = toks.shape[0]
    x = w["tok_embeddings.weight"][toks]
    for li in range(L):
        pre = f"layers.{li}."
        h = _ref_rms(x, w[pre + "attn_norm.gain"], eps)
        q = h @ w[pre + "wq"]
        k = h @ w[pre + "wk"]
        v = h @ w[pre + "wv"]
        # per-head q/k norms, rotary application via complex multiplication
        qh = q.reshape(S, heads, dh)
        kh = k.reshape(S, heads, dh)
        gq = w[pre + "q_norm.gain"].reshape(heads, dh)
        gk = w[pre + "k_norm.gain"].reshape(heads, dh)
        for t in range(S):
            for hh in range(heads):
                qh[t, hh] = _ref_rms(qh[t, hh], gq[hh], eps)
                kh[t, hh] = _ref_rms(kh[t, hh], gk[hh], eps)
                zq = qh[t, hh, 0::2] + 1j * qh[t, hh, 1::2]
                zk = kh[t, hh, 0::2] + 1j * kh[t, hh, 1::2]
                ang = t * base ** (-np.arange(dh // 2) * 2.0 / dh)
                rot = np.exp(1j * ang)
                zq = zq * rot
                zk = zk * rot
                qh[t, hh, 0::2], qh[t, hh, 1::2] = zq.real, zq.imag
                kh[t, hh, 0::2], kh[t, hh, 1::2] = zk.real, zk.imag
        vh = v.reshape(S, heads, dh)
        att = np.zeros((S, heads, dh))
        for t in range(S):
            for hh in range(heads):
                scores = np.array(
                    [qh[t, hh] @ kh[u, hh] / math.sqrt(dh) for u in range(t + 1)]
                )
                probs = _ref_softmax(scores)
                att[t, hh] = sum(probs[u] * vh[u, hh] for u in range(t + 1))
        x = x + att.reshape(S, heads * dh) @ w[pre + "wo"]
        h2 = _ref_rms(x, w[pre + "ffn_norm.gain"], eps)
        gate = h2 @ w[pre + "w1"]
        gate = gate * (1.0 / (1.0 + np.exp(-gate)))  # silu
        up = h2 @ w[pre + "w2"]
        x = x + (gate * up) @ w[pre + "w3"]
    xf = _ref_rms(x, w["final_norm.gain"], eps)
    if cfg["tied_head"]:
        logits = xf @ w["tok_embeddings.weight"].T
    else:
        logits = xf @ w["head.weight"].T
    return OracleResult(logits, "straight-line per-position float64 evaluation")


def oracle_greedy_decode(model, prompts: np.ndarray, max_new: int, mems) -> OracleResult:
    """Greedy decode that reruns the full, uncached forward for every token.

    Returns OracleResult(value=(B, max_new) token ids).
    """
    toks = prompts
    for _ in range(max_new):
        logits = mdl.forward(model, toks, mems=mems)
        nxt = np.argmax(logits.data[:, -1, :], axis=-1).astype(np.int32)
        toks = np.concatenate([toks, nxt[:, None]], axis=1)
    return OracleResult(toks[:, prompts.shape[1]:], "full forward rerun per new token, no cache")


# ---------------------------------------------------------------------------
# storage latency
# ---------------------------------------------------------------------------

def oracle_latency(level_bytes: list[int], tiers: list[tuple[float, float]], mode: str) -> OracleResult:
    """Per-level latencies combined by hand.

    tiers[i] = (bandwidth_bytes_per_s, fixed_latency_s) for level i+1.
    mode 'parallel' takes the slowest level, 'serial' the sum.
    """
    per = [(fixed + b / bw) if b > 0 else 0.0 for b, (bw, fixed) in zip(level_bytes, tiers)]
    if mode == "parallel":
        total = max(per) if per else 0.0
    elif mode == "serial":
        total = float(sum(per))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return OracleResult(total, f"per-level arithmetic, {mode} aggregation")
