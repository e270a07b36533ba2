"""Long-tail knowledge evaluation on a synthetic topical corpus.

The corpus generator builds disjoint "topics" (each with its own syllable
inventory, word list, and Markov babble) plus a set of entities per topic
whose single-attribute facts appear as short template documents:

    <topic sentence> The <attribute> of <Entity> is <value>. <topic sentence>

Fact mention counts follow a Zipf law over a global entity ranking that
interleaves topics, so every topic owns entities from every frequency
stratum. Recall is then measured per frequency quintile: prompt with
"The <attribute> of <Entity> is", greedy-decode a few tokens, extract the
first integer, compare to ground truth. Retrieval for a prompt uses only
the prompt text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import embed as em
from . import fileio
from . import membank as mb
from . import model as mdl
from . import numcore as nc
from .train import ByteTokenizer, _keep_freed_pages, _on_shards, _row_ranges


class EvalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticCorpusSpec:
    topics: int = 16
    entities_per_topic: int = 64
    zipf_exponent: float = 1.1
    total_fact_mentions: int = 30_000
    filler_docs_per_topic: int = 1000
    attribute: str = "code"
    value_low: int = 100
    value_high: int = 999
    syllables_per_topic: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.topics < 1 or self.entities_per_topic < 1:
            raise ValueError("topics and entities_per_topic must be positive")
        if self.zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        if self.total_fact_mentions < self.topics * self.entities_per_topic:
            raise ValueError("total_fact_mentions must cover every entity at least once")
        if not (0 <= self.value_low <= self.value_high):
            raise ValueError(f"bad value range [{self.value_low}, {self.value_high}]")


@dataclass
class Document:
    text: str
    topic: int
    entity: int | None = None   # global entity id for fact docs


@dataclass
class Fact:
    entity: int                 # global id
    name: str
    topic: int
    attribute: str
    value: int
    mentions: int
    bucket: int = -1            # frequency quintile, 0 = rarest
    home_leaf: tuple | None = None


_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"


def _topic_syllables(spec: SyntheticCorpusSpec, rng: np.random.Generator) -> list[list[str]]:
    all_syl = [c + v for c in _CONSONANTS for v in _VOWELS]  # 20 x 5 = 100 total
    need = spec.topics * spec.syllables_per_topic
    if need > len(all_syl):
        raise ValueError(
            f"{spec.topics} topics x {spec.syllables_per_topic} syllables "
            f"exceed the {len(all_syl)} available"
        )
    order = rng.permutation(len(all_syl))
    return [
        [all_syl[order[t * spec.syllables_per_topic + j]] for j in range(spec.syllables_per_topic)]
        for t in range(spec.topics)
    ]


def _topic_words(syl: list[str], rng: np.random.Generator, count: int = 40) -> list[str]:
    pairs = [a + b for a in syl for b in syl]
    triples = [a + b + c for a in syl for b in syl for c in syl]
    pool = pairs + triples
    idx = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in sorted(idx)]


def _entity_names(syl: list[str], rng: np.random.Generator, count: int) -> list[str]:
    n = len(syl)
    combos = n ** 5
    if count > combos:
        raise ValueError(f"cannot draw {count} distinct names from {combos} syllable tuples")
    picks = rng.choice(combos, size=count, replace=False)
    names = []
    for p in picks:
        digits = []
        x = int(p)
        for _ in range(5):
            digits.append(x % n)
            x //= n
        names.append("".join(syl[d] for d in digits).capitalize())
    return names


def _apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer counts proportional to weights: largest-remainder rounding,
    then a floor of one mention per entity."""
    w = weights / weights.sum()
    raw = w * total
    counts = np.floor(raw).astype(np.int64)
    rem = total - counts.sum()
    frac_order = np.argsort(-(raw - counts), kind="stable")
    counts[frac_order[:rem]] += 1
    for i in np.flatnonzero(counts == 0):
        counts[int(np.argmax(counts))] -= 1
        counts[i] = 1
    return counts


class _Markov:
    """Order-1 word chain with a fixed small successor set per word."""

    def __init__(self, words: list[str], rng: np.random.Generator):
        self.words = words
        self.next = {w: rng.choice(len(words), size=4) for w in words}
        self.rng = rng

    def sentence(self, length: int, accent: list[str] | None = None) -> str:
        """``accent`` words (an entity's own derived vocabulary) replace
        roughly half the chain words, so documents about an entity share
        character n-grams with its name."""
        w = self.words[int(self.rng.integers(len(self.words)))]
        out = [w]
        for _ in range(length - 1):
            w = self.words[int(self.next[w][int(self.rng.integers(4))])]
            out.append(w)
        if accent is not None:
            for i in range(len(out)):
                if self.rng.random() < 0.5:
                    out[i] = accent[int(self.rng.integers(len(accent)))]
        return out[0].capitalize() + (" " + " ".join(out[1:]) if len(out) > 1 else "") + "."


def gen_corpus(spec: SyntheticCorpusSpec) -> tuple[list[Document], list[Fact]]:
    """Deterministically generate (documents, facts) for a spec."""
    rng = np.random.default_rng([spec.seed, 0xC0_4B])
    topic_syl = _topic_syllables(spec, rng)
    chains = [_Markov(_topic_words(s, rng), rng) for s in topic_syl]
    names_by_topic = [_entity_names(s, rng, spec.entities_per_topic) for s in topic_syl]

    n_entities = spec.topics * spec.entities_per_topic
    # global rank r -> entity (topic r % T, slot r // T): every topic spans
    # the whole frequency spectrum
    ranks = np.arange(n_entities)
    weights = 1.0 / (ranks + 1.0) ** spec.zipf_exponent
    counts_by_rank = _apportion(spec.total_fact_mentions, weights)

    facts: list[Fact] = []
    for r in range(n_entities):
        topic = r % spec.topics
        slot = r // spec.topics
        entity_id = topic * spec.entities_per_topic + slot
        facts.append(
            Fact(
                entity=entity_id,
                name=names_by_topic[topic][slot],
                topic=topic,
                attribute=spec.attribute,
                value=int(rng.integers(spec.value_low, spec.value_high + 1)),
                mentions=int(counts_by_rank[r]),
            )
        )
    facts.sort(key=lambda f: f.entity)
    assign_buckets(facts)

    docs: list[Document] = []
    for f in facts:
        chain = chains[f.topic]
        low = f.name.lower()
        # name fragments at syllable boundaries: the derived vocabulary of
        # documents about this entity, sharing exactly the prompt's n-grams
        accent = [low[i : i + 4] for i in range(0, len(low) - 2, 2)]
        accent += [low[i : i + 6] for i in range(0, len(low) - 4, 2)]
        for _ in range(f.mentions):
            s1 = chain.sentence(int(rng.integers(5, 10)), accent=accent)
            text = f"{s1} {f.name} {f.attribute} is {f.value}."
            docs.append(Document(text=text, topic=f.topic, entity=f.entity))
    for t in range(spec.topics):
        chain = chains[t]
        for _ in range(spec.filler_docs_per_topic):
            n_sent = int(rng.integers(1, 4))
            text = " ".join(chain.sentence(int(rng.integers(6, 13))) for _ in range(n_sent))
            docs.append(Document(text=text, topic=t))

    order = rng.permutation(len(docs))
    docs = [docs[i] for i in order]
    return docs, facts


def assign_buckets(facts: list[Fact], n_buckets: int = 5) -> None:
    """Frequency quintiles, bucket 0 = rarest. Buckets partition the set."""
    order = sorted(range(len(facts)), key=lambda i: (facts[i].mentions, facts[i].entity))
    for b, chunk in enumerate(np.array_split(np.array(order), n_buckets)):
        for i in chunk:
            facts[int(i)].bucket = b


_FACT_FIELD_TYPES = {"entity": int, "name": str, "topic": int, "attribute": str,
                     "value": int, "mentions": int, "bucket": int}


def load_facts(path) -> list[Fact]:
    """The fact table a JSON file holds: a list of objects with ``Fact``'s fields.

    A file that is not such a list, an empty list, a row missing a field or
    holding an unknown one, or a field of the wrong type is an ``EvalError``.
    A ``home_leaf`` is absent, null, or a non-empty list of ints >= 1.
    """
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise EvalError(f"{path}: not a JSON fact table ({e})") from None
    if not isinstance(rows, list):
        raise EvalError(f"{path}: a fact table is a JSON list, not {type(rows).__name__}")
    if not rows:
        raise EvalError(f"{path}: the fact table holds no facts")
    out = []
    for i, r in enumerate(rows):
        try:
            fact = Fact(**r)
        except TypeError as e:  # not an object, missing or unknown field
            raise EvalError(f"{path}: fact {i} is not a fact row ({e})") from None
        for name, typ in _FACT_FIELD_TYPES.items():
            v = getattr(fact, name)
            if not isinstance(v, typ) or isinstance(v, bool):
                raise EvalError(f"{path}: fact {i} has {name} {v!r}, not {typ.__name__}")
        hl = fact.home_leaf
        if hl is not None and not (isinstance(hl, list) and hl and all(type(c) is int and c >= 1 for c in hl)):
            raise EvalError(f"{path}: fact {i} has home_leaf {hl!r}, not a non-empty list of ints >= 1")
        fact.home_leaf = None if hl is None else tuple(hl)
        out.append(fact)
    return out


# ---------------------------------------------------------------------------
# retrieval-conditioned forward helpers
# ---------------------------------------------------------------------------

def route_texts(texts: list[str], tree: cl.ClusterTree, ecfg: em.EmbedderConfig) -> np.ndarray:
    """(n, depth) 1-based cluster paths from text alone."""
    return cl.assign_batch(em.embed_batch(texts, ecfg), tree)


def _memory_rows(
    bank: mb.MemoryBank | None,
    paths: np.ndarray | None,
    mode: str,
    mask: mb.BlockMask | None,
    dtype,
) -> list[nc.Tensor] | None:
    """Per-level (B, s_l) weight rows for a batch, or None for mode 'none'.

    Generic mode gathers one row per level, which the model broadcasts
    over the batch.
    """
    if mode == "none":
        return None
    if bank is None:
        raise EvalError(f"eval mode {mode!r} needs a memory bank")
    if mode == "generic":
        fm = mb.fetch(bank, np.zeros(1, dtype=np.int64), generic_rows=np.ones(1, dtype=bool))
    else:
        if paths.shape[1] != bank.depth or ((paths < 1) | (paths > bank.k)).any():
            raise mb.BankError(f"routed paths do not address a k={bank.k}, depth-{bank.depth} bank")
        fm = mb.fetch(bank, cl.flats_of_paths(paths, bank.k), mask=mask)
    return [nc.Tensor(rows.astype(dtype, copy=False)) for rows in fm.levels]


# ---------------------------------------------------------------------------
# fact recall
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?\d+")


def extract_int(text: str) -> int | None:
    m = _INT_RE.search(text)
    return int(m.group()) if m else None


def greedy_decode_batch(
    model: mdl.TransformerModel,
    prompts_tokens: np.ndarray,
    max_new: int,
    mems: mdl.AttachedMemories | None,
) -> np.ndarray:
    """(B, max_new) greedy continuations of equal-length prompts (B, S0).

    One forward, the prefill, runs the prompts into a key/value cache; each
    further token is one one-position forward of the whole batch against
    it, so a batch computes S0 + max_new - 1 positions per row rather than
    rerunning the prefix. Each cached forward returns the last position's
    logits only. The prefill runs as ``train``'s row shards: two contiguous
    row ranges, one on the helper thread and one on the calling thread,
    each writing its rows of the one cache with its rows of ``mems``; a
    one-row batch runs inline. Rows are independent, so every shard
    computes what the whole batch would for its rows, up to the rounding of
    a GEMM over fewer rows.
    """
    B, S0 = prompts_tokens.shape
    out = np.empty((B, max_new), dtype=np.result_type(prompts_tokens.dtype, np.int32))
    if B == 0 or max_new == 0:
        return out
    cache = mdl.KVCache(model.cfg, B, S0 + max_new - 1, model.dtype)

    def prefill(rows: tuple[int, int]) -> None:
        a, b = rows
        part = None if mems is None else mems.rows(a, b)
        logits = mdl.forward(model, prompts_tokens[a:b], mems=part, cache=cache.rows(a, b))
        out[a:b, 0] = np.argmax(logits.data[:, -1, :], axis=-1)

    _on_shards(prefill, _row_ranges(B))
    cache.length = S0
    for t in range(1, max_new):
        logits = mdl.forward(model, out[:, t - 1 : t], mems=mems, cache=cache)
        out[:, t] = np.argmax(logits.data[:, -1, :], axis=-1)
    return out


@dataclass
class RecallReport:
    mode: str
    overall: float
    buckets: list            # dicts: bucket, count, correct, accuracy
    routing_accuracy: float | None
    traces: list = field(default_factory=list)


def fact_prompt(f: Fact) -> str:
    return f"{f.name} {f.attribute} is"


def fact_recall(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank | None,
    tree: cl.ClusterTree | None,
    ecfg: em.EmbedderConfig | None,
    tok: ByteTokenizer,
    facts: list[Fact],
    mode: str = "fetched",
    mask: mb.BlockMask | None = None,
    max_new: int = 8,
    batch_size: int = 64,
) -> RecallReport:
    """Prompt-only retrieval, greedy decode, first-integer extraction.

    The report has one row per frequency bucket the facts carry.
    """
    if mode not in ("none", "generic", "fetched"):
        raise EvalError(f"unknown eval mode {mode!r}")
    _keep_freed_pages()  # same-shaped decode batches: each one reuses what the last one freed
    prompts = [fact_prompt(f) for f in facts]
    paths = None
    if mode == "fetched":
        if tree is None:
            raise EvalError("fetched-mode recall needs a cluster tree")
        # a home leaf off the tree could never count as routed right
        for f in facts:
            if f.home_leaf is not None and (len(f.home_leaf) != tree.depth or max(f.home_leaf) > tree.k):
                raise EvalError(f"fact {f.entity} ({f.name}) has home leaf {f.home_leaf}, "
                                f"not a leaf of the k={tree.k}, depth-{tree.depth} tree")
        # a tree that records its embedder routes only with that one
        if tree.embedder is not None and ecfg != tree.embedder:
            raise EvalError(f"the tree was built with embedder {tree.embedder} but routing was asked with {ecfg}")
        paths = route_texts(prompts, tree, ecfg)

    # group by prompt length so a batch decodes in lockstep without padding
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(prompts):
        groups.setdefault(len(p.encode("utf-8")), []).append(i)

    correct = np.zeros(len(facts), dtype=bool)
    predicted: list[int | None] = [None] * len(facts)
    for length in sorted(groups):
        idxs = groups[length]
        for i0 in range(0, len(idxs), batch_size):
            idx = idxs[i0 : i0 + batch_size]
            toks = np.stack([tok.encode(prompts[i]) for i in idx])
            rows = _memory_rows(bank, paths[idx] if paths is not None else None, mode, mask, model.dtype)
            mems = mdl.AttachedMemories(bank.cfg, model.cfg, rows) if rows is not None else None
            gen = greedy_decode_batch(model, toks, max_new, mems)
            for j, i in enumerate(idx):
                out = gen[j]
                stop = np.flatnonzero(out == ByteTokenizer.EOT)
                if len(stop):
                    out = out[: stop[0]]
                pred = extract_int(tok.decode(out))
                predicted[i] = pred
                correct[i] = pred == facts[i].value

    buckets = []
    for b in sorted({f.bucket for f in facts}):
        sel = [i for i, f in enumerate(facts) if f.bucket == b]
        c = int(correct[sel].sum())
        buckets.append({"bucket": b, "count": len(sel), "correct": c, "accuracy": c / len(sel)})
    routing = None
    if paths is not None and all(f.home_leaf is not None for f in facts):
        hits = sum(tuple(paths[i]) == facts[i].home_leaf for i in range(len(facts)))
        routing = hits / len(facts)
    traces = [
        {
            "entity": f.entity,
            "name": f.name,
            "topic": f.topic,
            "bucket": f.bucket,
            "value": f.value,
            "predicted": predicted[i],
            "correct": bool(correct[i]),
            "routed": [int(x) for x in paths[i]] if paths is not None else None,
        }
        for i, f in enumerate(facts)
    ]
    return RecallReport(
        mode=mode,
        overall=float(correct.mean()),
        buckets=buckets,
        routing_accuracy=routing,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_recall_report(rep: RecallReport, csv_path, jsonl_path) -> None:
    rows = [[b["bucket"], b["count"], b["correct"], b["accuracy"]] for b in rep.buckets]
    rows.append(["overall", len(rep.traces), int(sum(t["correct"] for t in rep.traces)), rep.overall])
    if rep.routing_accuracy is not None:
        rows.append(["routing", None, None, rep.routing_accuracy])
    fileio.write_csv(csv_path, ("bucket", "count", "correct", "accuracy"), rows)
    fileio.write_lines(jsonl_path, (json.dumps(t, sort_keys=True) for t in rep.traces))
