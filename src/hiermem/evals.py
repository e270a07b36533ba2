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
the prompt text; retrieval for perplexity uses the whole document.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import embed as em
from . import membank as mb
from . import model as mdl
from . import numcore as nc
from .train import ByteTokenizer


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

    @property
    def is_fact(self) -> bool:
        return self.entity is not None


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
    all_syl = [c + v for c in _CONSONANTS for v in _VOWELS]  # 65 total
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


def save_corpus(docs: list[Document], path) -> None:
    lines = []
    for d in docs:
        if "\n" in d.text:
            raise EvalError("corpus documents must be single-line")
        lines.append(d.text)
    Path(path).write_text("\n".join(lines) + "\n")


def save_facts(facts: list[Fact], path) -> None:
    rows = [asdict(f) for f in facts]
    for r in rows:
        if r["home_leaf"] is not None:
            r["home_leaf"] = list(r["home_leaf"])
    Path(path).write_text(json.dumps(rows, indent=0, sort_keys=True) + "\n")


def load_facts(path) -> list[Fact]:
    rows = json.loads(Path(path).read_text())
    out = []
    for r in rows:
        hl = r.pop("home_leaf", None)
        out.append(Fact(**r, home_leaf=tuple(hl) if hl else None))
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


def _attach(bank, model, rows):
    if rows is None:
        return None
    return mdl.AttachedMemories(bank.cfg, model.cfg, rows)


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------

def perplexity(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank | None,
    tree: cl.ClusterTree | None,
    ecfg: em.EmbedderConfig | None,
    tok: ByteTokenizer,
    texts: list[str],
    mode: str = "fetched",
    mask: mb.BlockMask | None = None,
    batch_size: int = 16,
) -> dict:
    """Corpus perplexity with full-document retrieval per document."""
    if mode not in ("none", "generic", "fetched"):
        raise EvalError(f"unknown eval mode {mode!r}")
    paths = route_texts(texts, tree, ecfg) if mode == "fetched" else None
    max_len = model.cfg.context_length
    total_nll = 0.0
    total_tok = 0
    order = sorted(range(len(texts)), key=lambda i: len(texts[i].encode("utf-8")))
    for i0 in range(0, len(order), batch_size):
        idx = order[i0 : i0 + batch_size]
        full = [tok.encode(texts[i]) for i in idx]
        toks = [t[:max_len] for t in full]
        S = max(len(t) for t in toks)
        inputs = np.full((len(idx), S), ByteTokenizer.EOT, dtype=np.int32)
        targets = np.full((len(idx), S), ByteTokenizer.EOT, dtype=np.int32)
        weights = np.zeros((len(idx), S), dtype=model.dtype)
        for j, t in enumerate(toks):
            inputs[j, : len(t)] = t
            targets[j, : len(t) - 1] = t[1:]
            # the last byte of a whole document predicts EOT (targets are
            # EOT-filled); that of a truncated one would predict a byte
            # beyond the context, so it carries no loss
            weights[j, : len(t) if len(full[j]) <= max_len else len(t) - 1] = 1.0
        rows = _memory_rows(bank, paths[idx] if paths is not None else None, mode, mask, model.dtype)
        logits = mdl.forward(model, inputs, mems=_attach(bank, model, rows))
        ce = nc.cross_entropy(logits, targets, weights)
        pw = ce._pointwise.reshape(weights.shape)
        total_nll += float((pw * weights).sum())
        total_tok += int(weights.sum())
    nll = total_nll / max(total_tok, 1)
    return {"mode": mode, "nll": nll, "perplexity": math.exp(nll), "tokens": total_tok}


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
    """Naive greedy decode: re-run the full forward per generated token."""
    toks = prompts_tokens
    for _ in range(max_new):
        logits = mdl.forward(model, toks, mems=mems)
        nxt = np.argmax(logits.data[:, -1, :], axis=-1).astype(np.int32)
        toks = np.concatenate([toks, nxt[:, None]], axis=1)
    return toks[:, prompts_tokens.shape[1]:]


@dataclass
class RecallReport:
    mode: str
    overall: float
    buckets: list            # dicts: bucket, count, correct, accuracy
    routing_accuracy: float | None
    traces: list = field(default_factory=list)

    def bucket_accuracy(self, b: int) -> float:
        return self.buckets[b]["accuracy"]


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
    n_buckets: int = 5,
) -> RecallReport:
    """Prompt-only retrieval, greedy decode, first-integer extraction."""
    if mode not in ("none", "generic", "fetched"):
        raise EvalError(f"unknown eval mode {mode!r}")
    prompts = [fact_prompt(f) for f in facts]
    paths = route_texts(prompts, tree, ecfg) if mode in ("fetched",) else None

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
            gen = greedy_decode_batch(model, toks, max_new, _attach(bank, model, rows))
            for j, i in enumerate(idx):
                out = gen[j]
                stop = np.flatnonzero(out == ByteTokenizer.EOT)
                if len(stop):
                    out = out[: stop[0]]
                pred = extract_int(tok.decode(out))
                predicted[i] = pred
                correct[i] = pred == facts[i].value

    buckets = []
    for b in range(n_buckets):
        sel = [i for i, f in enumerate(facts) if f.bucket == b]
        c = int(correct[list(sel)].sum()) if sel else 0
        buckets.append(
            {"bucket": b, "count": len(sel), "correct": c, "accuracy": c / len(sel) if sel else float("nan")}
        )
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
# blocking sweep
# ---------------------------------------------------------------------------

def blocking_sweep(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank,
    tree: cl.ClusterTree,
    ecfg: em.EmbedderConfig,
    tok: ByteTokenizer,
    facts: list[Fact],
    blocked_counts: list[int],
    max_new: int = 8,
    batch_size: int = 64,
) -> list[dict]:
    """Recall as level-1 subtrees get masked, most-queried subtrees first.

    Per count n: blocks the n level-1 subtrees receiving the most query
    traffic, then splits fetched-mode accuracy into affected (the query's
    path enters a blocked subtree) and unaffected queries.
    """
    prompts = [fact_prompt(f) for f in facts]
    paths = route_texts(prompts, tree, ecfg)
    traffic = np.bincount(paths[:, 0] - 1, minlength=tree.k)
    rank = np.argsort(-traffic, kind="stable") + 1  # 1-based level-1 ids
    out = []
    for n in blocked_counts:
        if not (0 <= n <= tree.k):
            raise EvalError(f"cannot block {n} of {tree.k} level-1 subtrees")
        roots = [(int(r),) for r in rank[:n]]
        mask = mb.BlockMask(roots) if roots else None
        rep = fact_recall(
            model, bank, tree, ecfg, tok, facts,
            mode="fetched", mask=mask, max_new=max_new, batch_size=batch_size,
        )
        blocked_set = {r[0] for r in roots}
        aff = [t["correct"] for t in rep.traces if t["routed"][0] in blocked_set]
        una = [t["correct"] for t in rep.traces if t["routed"][0] not in blocked_set]
        out.append(
            {
                "blocked": n,
                "blocked_roots": sorted(blocked_set),
                "overall": rep.overall,
                "affected_count": len(aff),
                "affected_accuracy": float(np.mean(aff)) if aff else float("nan"),
                "unaffected_accuracy": float(np.mean(una)) if una else float("nan"),
                "report": rep,
            }
        )
    return out


# ---------------------------------------------------------------------------
# vanilla RAG baseline
# ---------------------------------------------------------------------------

@dataclass
class RagStore:
    texts: list[str]
    embeddings: np.ndarray   # (n, c) L2-normalized
    paths: np.ndarray        # (n, depth) 1-based


def build_rag_store(texts: list[str], tree: cl.ClusterTree, ecfg: em.EmbedderConfig) -> RagStore:
    emb = em.embed_batch(texts, ecfg)
    emb = cl.normalize_rows(emb)
    return RagStore(texts=texts, embeddings=emb, paths=cl.assign_batch(emb, tree))


def rag_retrieve(query: str, store: RagStore, tree: cl.ClusterTree, ecfg: em.EmbedderConfig,
                 level: int | None = None) -> int:
    """Nearest stored document within the query's cluster at ``level``
    (default min(3, depth)), walking up the tree if the cell is empty."""
    lvl = min(3, tree.depth) if level is None else level
    q = cl.normalize_rows(em.embed_text(query, ecfg).reshape(1, -1))
    qpath = cl.assign_batch(q, tree)[0]
    while True:
        if lvl <= 0:
            cand = np.arange(len(store.texts))
            break
        cand = np.flatnonzero((store.paths[:, :lvl] == qpath[:lvl]).all(axis=1))
        if len(cand):
            break
        lvl -= 1
    d2 = np.sum((store.embeddings[cand] - q) ** 2, axis=1)
    return int(cand[int(np.argmin(d2))])


def rag_baseline(query: str, store: RagStore, tree: cl.ClusterTree, ecfg: em.EmbedderConfig,
                 generate_fn, level: int | None = None) -> dict:
    """Prepend the retrieved document to the query, then let the caller's
    ``generate_fn(full_prompt) -> str`` continue it (0-shot)."""
    ridx = rag_retrieve(query, store, tree, ecfg, level)
    full = store.texts[ridx] + "\n" + query
    continuation = generate_fn(full)
    return {"retrieved": ridx, "prompt": full, "continuation": continuation,
            "predicted": extract_int(continuation)}


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_recall_report(rep: RecallReport, csv_path, jsonl_path=None) -> None:
    lines = ["bucket,count,correct,accuracy"]
    for b in rep.buckets:
        lines.append(f"{b['bucket']},{b['count']},{b['correct']},{b['accuracy']:.6f}")
    lines.append(f"overall,{len(rep.traces)},{int(sum(t['correct'] for t in rep.traces))},{rep.overall:.6f}")
    if rep.routing_accuracy is not None:
        lines.append(f"routing,,,{rep.routing_accuracy:.6f}")
    Path(csv_path).write_text("\n".join(lines) + "\n")
    if jsonl_path is not None:
        with open(jsonl_path, "w") as f:
            for t in rep.traces:
                f.write(json.dumps(t, sort_keys=True) + "\n")
