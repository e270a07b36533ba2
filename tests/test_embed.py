from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import embed as em
from hiermem import refcheck as rc

CFG = em.EmbedderConfig(dim=64, seed=3)


def one(text, cfg=CFG):
    return em.embed_batch([text], cfg)[0]


def test_unit_norm_and_shape():
    v = one("the quick brown fox")
    assert v.shape == (64,) and v.dtype == np.float32
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-6)


def test_empty_text_gives_zero_vector():
    assert not one("").any()
    assert em.embed_batch([], CFG).shape == (0, 64)


def test_batch_matches_single():
    texts = ["alpha beta", "gamma", "alpha beta gamma delta"]
    batch = em.embed_batch(texts, CFG)
    for i, t in enumerate(texts):
        assert np.array_equal(batch[i], one(t))


def test_whitespace_and_case_insensitive():
    assert np.array_equal(one("Hello   World"), one("hello world"))


def test_seed_changes_embedding():
    assert not np.array_equal(one("same text"), one("same text", em.EmbedderConfig(dim=64, seed=4)))


def test_different_texts_separate():
    a = one("totally unrelated words here")
    b = one("completely different sentence instead")
    assert abs(float(a @ b)) < 0.9


@settings(max_examples=30, deadline=None)
@given(st.text(min_size=0, max_size=120))
def test_embedding_deterministic_and_bounded(text):
    v1 = one(text)
    v2 = one(text)
    assert np.array_equal(v1, v2)
    n = np.linalg.norm(v1)
    assert n == 0.0 or np.isclose(n, 1.0, atol=1e-5)


TEXTS = st.one_of(
    st.text(max_size=80),                                    # any unicode
    st.text(alphabet="ab", max_size=4),                      # empty or shorter than an n-gram
    st.text(alphabet=" \t\n\u00a0\u3000xyZ", max_size=30),   # whitespace runs, odd spaces
)


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(TEXTS, max_size=12), chunk=st.sampled_from([1, 2, 5, em._CHUNK_DOCS]),
       budget=st.sampled_from([1, 40, em._CHUNK_BYTES]), sizes=st.sampled_from([(3, 4, 5), (1, 2), (6,)]))
def test_batch_matches_oracle(texts, chunk, budget, sizes):
    cfg = em.EmbedderConfig(dim=16, ngram_sizes=sizes, seed=2)
    # small chunks: batches span several
    with mock.patch.object(em, "_CHUNK_DOCS", chunk), mock.patch.object(em, "_CHUNK_BYTES", budget):
        got = em.embed_batch(texts, cfg)
    assert got.dtype == np.float32
    assert got.tobytes() == rc.oracle_embed(texts, cfg).value.tobytes()


def test_batch_larger_than_a_chunk_matches_oracle():
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "ε", "日本", "  "]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 5)))) for _ in range(em._CHUNK_DOCS + 37)]
    got = em.embed_batch(texts, CFG)
    assert got.tobytes() == rc.oracle_embed(texts, CFG).value.tobytes()


def test_long_documents_split_by_bytes_match_oracle():
    rng = np.random.default_rng(1)
    words = ["alpha", "beta", "gamma", "δέλτα", "日本語"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 900)))) for _ in range(9)]
    calls = []
    real = em._embed_chunk
    with mock.patch.object(em, "_CHUNK_BYTES", 4096), \
         mock.patch.object(em, "_embed_chunk", lambda docs, cfg: calls.append(docs) or real(docs, cfg)):
        got = em.embed_batch(texts, CFG)
    assert got.tobytes() == rc.oracle_embed(texts, CFG).value.tobytes()
    assert len(calls) > 1  # the budget, not the document count, ended the chunks
    assert all(len(docs) == 1 or sum(map(len, docs)) <= 4096 for docs in calls)


def test_large_counts_take_the_float32_dot_norm():
    # sums of squares past 2**24 are not exact in float32; the norm must
    # still be the one numpy gives the float32 vector (a float32 root of
    # the exact sum misses it on both of these)
    texts = ["q" * 3079, "ab" * 1893]
    assert em.embed_batch(texts, CFG).tobytes() == rc.oracle_embed(texts, CFG).value.tobytes()
