"""Deterministic text embedding and rule-based consensus summarization.

The embedding is a signed feature hash of token unigrams and adjacent
bigrams into a fixed number of buckets, L2-normalized. It is deliberately
free of learned weights so that identical texts embed identically on every
platform and run; the hash salt is versioned so the function can evolve
without silently changing old results.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from functools import lru_cache
from typing import Any, Iterable, Sequence

import numpy as np

from . import vocab
from .errors import EmptyClusterError, EmptyDescriptionError

EMBEDDING_DIM = 256
HASH_SEED = "reid-hash-v1"

STOPWORDS = frozenset({"a", "an", "the", "with", "and", "wearing", "in"})

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop stopwords, keep order."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t and t not in STOPWORDS]


def _feature_hash(feature: str) -> tuple[int, float]:
    """Map a feature string to (bucket index, sign) via independent hash bits."""
    digest = hashlib.blake2b(
        (HASH_SEED + "\x1f" + feature).encode("utf-8"), digest_size=9
    ).digest()
    index = int.from_bytes(digest[:8], "big") % EMBEDDING_DIM
    sign = 1.0 if digest[8] & 1 == 0 else -1.0
    return index, sign


def features_of(tokens: Sequence[str]) -> list[str]:
    """Unigram and adjacent-bigram feature strings for a token sequence."""
    feats = ["u\x1f" + t for t in tokens]
    feats.extend(
        "b\x1f" + a + "\x1f" + b for a, b in zip(tokens, tokens[1:])
    )
    return feats


@lru_cache(maxsize=None)
def _embed_cached(tokens: tuple[str, ...]) -> np.ndarray:
    v = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    for feat in features_of(tokens):
        index, sign = _feature_hash(feat)
        v[index] += sign
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        # Total sign cancellation; not reachable for the shipped vocabulary.
        raise EmptyDescriptionError(f"embedding cancelled to zero for tokens {tokens!r}")
    v /= norm
    v.flags.writeable = False
    return v


def embed(tokens: Sequence[str]) -> np.ndarray:
    """Embed an ordered token list into a unit vector of EMBEDDING_DIM."""
    toks = tuple(tokens)
    if not toks:
        raise EmptyDescriptionError("cannot embed an empty token list")
    return _embed_cached(toks)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors, clamped to [-1, 1]."""
    return min(1.0, max(-1.0, float(np.dot(a, b))))


def _winner(votes: dict[str, int], need: int) -> str | None:
    """Plurality value with lexicographic tie-break, or None below quorum."""
    if sum(votes.values()) < need:
        return None
    top = max(votes.values())
    return min(v for v, c in votes.items() if c == top)


def summarize(members: Iterable[Any]) -> str:
    """Render a consensus description for a cluster's member texts.

    Per template slot, take the most frequent value among the member texts
    that mention the slot (ties resolved lexicographically); slots mentioned
    by fewer than ceil(n/4) members are dropped. Depends only on the multiset
    of texts, so it is invariant under member permutation and duplication;
    each distinct text is parsed once and votes with its multiplicity.

    Accepts DescriptionRecord-like objects (anything with ``.text``) or raw
    strings.
    """
    texts = Counter(m if isinstance(m, str) else m.text for m in members)
    if not texts:
        raise EmptyClusterError("cannot summarize an empty member list")
    need = math.ceil(sum(texts.values()) / 4)
    parsed = [(vocab.parse_description(t), n) for t, n in texts.items()]

    def vote(slot: str) -> str | None:
        votes: dict[str, int] = {}
        for p, n in parsed:
            value = getattr(p, slot)
            if value is not None:
                votes[value] = votes.get(value, 0) + n
        return _winner(votes, need)

    noun = vote("noun")
    upper_type = vote("upper_type")
    lower_type = vote("lower_type")
    accessories = tuple(
        a for a in vocab.ACCESSORIES
        if sum(n for p, n in parsed if a in p.accessories) >= need
    )

    return vocab.render_description(
        noun=noun if noun is not None else "person",
        upper=(vote("upper_color"), upper_type) if upper_type is not None else None,
        lower=(vote("lower_color"), lower_type) if lower_type is not None else None,
        accessories=accessories,
        hair_color=vote("hair_color"),
    )


def vocabulary_words() -> list[str]:
    """Every token the reference describer can emit, deduplicated."""
    words: set[str] = set()
    words.update(vocab.NOUNS)
    words.update(vocab.PALETTE)
    for w in vocab.UPPER_TYPES + vocab.LOWER_TYPES:
        if w != "none":
            words.update(tokenize(w))
    words.update(vocab.ACCESSORIES)
    words.update(tokenize(" ".join(vocab.SYNONYMS.values())))
    words.add("hair")
    return sorted(words)


def vocabulary_collision_report() -> dict:
    """Enumerate hash-bucket collisions among vocabulary unigram features.

    Returns a JSON-friendly report; ``aligned_collisions`` lists word pairs
    that land in the same bucket with the same sign (the only kind that makes
    two words indistinguishable to the embedding).
    """
    words = vocabulary_words()
    by_bucket: dict[int, list[tuple[str, float]]] = {}
    for w in words:
        index, sign = _feature_hash("u\x1f" + w)
        by_bucket.setdefault(index, []).append((w, sign))
    collisions = []
    aligned = []
    for index, entries in sorted(by_bucket.items()):
        if len(entries) < 2:
            continue
        ws = sorted(w for w, _ in entries)
        collisions.append({"bucket": index, "words": ws})
        for i, (w1, s1) in enumerate(sorted(entries)):
            for w2, s2 in sorted(entries)[i + 1:]:
                if s1 == s2:
                    aligned.append(sorted([w1, w2]))
    return {
        "hash_seed": HASH_SEED,
        "dim": EMBEDDING_DIM,
        "word_count": len(words),
        "bucket_collisions": collisions,
        "aligned_collisions": sorted(aligned),
    }
