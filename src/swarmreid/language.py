"""Deterministic text embedding and rule-based consensus summarization.

The embedding is a signed feature hash of token unigrams and adjacent
bigrams into a fixed number of buckets, L2-normalized. It is deliberately
free of learned weights so that identical texts embed identically on every
platform and run; the hash salt is versioned so the function can evolve
without silently changing old results.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Sequence

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


@lru_cache(maxsize=None)
def cached_tokens(text: str) -> tuple[str, ...]:
    """``tokenize`` as a tuple, cached per text, so equal texts share one
    tuple: descriptions and summaries, which repeat heavily, and queries, of
    which a text asked of every robot's database is split once. The cache
    grows with the distinct texts, as ``embed``'s does with the distinct
    token tuples, each of which it keeps with its vector.
    """
    return tuple(tokenize(text))


@lru_cache(maxsize=None)
def _feature_hash(feature: str) -> tuple[int, float]:
    """Map a feature string to (bucket index, sign) via independent hash bits;
    cached per feature, as texts share most of theirs."""
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


_VOTED_SLOTS = ("noun", "upper_color", "upper_type", "lower_color",
                "lower_type", "hair_color")
_slot_values = attrgetter(*_VOTED_SLOTS)


@lru_cache(maxsize=None)
def _votes_of(text: str) -> tuple[tuple[tuple[int, str], ...], tuple[str, ...]]:
    """The (slot index, value) votes and the accessories ``text`` names;
    cached per text, as ``vocab.parse_description`` is."""
    parsed = vocab.parse_description(text)
    votes = tuple((i, value) for i, value in enumerate(_slot_values(parsed))
                  if value is not None)
    return votes, parsed.accessories


@lru_cache(maxsize=None)
def _render(noun: str | None, upper_color: str | None, upper_type: str | None,
            lower_color: str | None, lower_type: str | None,
            hair_color: str | None, accessories: tuple[str, ...]) -> str:
    """The description of one slot outcome; cached, as clusters share few."""
    return vocab.render_description(
        noun=noun if noun is not None else "person",
        upper=(upper_color, upper_type) if upper_type is not None else None,
        lower=(lower_color, lower_type) if lower_type is not None else None,
        accessories=accessories,
        hair_color=hair_color,
    )


class SlotTally:
    """Consensus votes of a multiset of member texts: a value, never changed
    once built, so any number of clusters may hold one.

    Holds the member count ``n``, the votes per (slot, value) and how many
    members name each accessory. Votes only ever grow, so each slot's running
    total and leader (most votes, ties to the smallest value) are kept as
    votes are counted, and ``render`` costs one step per slot. A cluster that
    grows takes ``plus`` of its tally.
    """

    __slots__ = ("n", "votes", "accessories", "_totals", "_leaders")

    def __init__(self, texts: Iterable[str] = ()) -> None:
        """Tally member ``texts``. Each distinct text is parsed once and
        votes with its multiplicity."""
        self.n = 0
        # (slot index in _VOTED_SLOTS, value) -> votes
        self.votes: dict[tuple[int, str], int] = {}
        self.accessories: dict[str, int] = {}
        self._totals = [0] * len(_VOTED_SLOTS)
        # per slot, (votes, value) of the leader
        self._leaders: list[tuple[int, str] | None] = [None] * len(_VOTED_SLOTS)
        for text, k in Counter(texts).items():
            self._add(text, k)

    def plus(self, texts: Iterable[str]) -> "SlotTally":
        """A new tally of these members and ``texts``; this one is unchanged."""
        twin = SlotTally.__new__(SlotTally)
        twin.n = self.n
        twin.votes = dict(self.votes)
        twin.accessories = dict(self.accessories)
        twin._totals = list(self._totals)
        twin._leaders = list(self._leaders)
        for text in texts:
            twin._add(text)
        return twin

    def _add(self, text: str, k: int = 1) -> None:
        """Count ``k`` more members whose description is ``text``; only
        while the tally is being built."""
        keys, named = _votes_of(text)
        self.n += k
        votes, totals, leaders = self.votes, self._totals, self._leaders
        for key in keys:
            i, value = key
            c = votes[key] = votes.get(key, 0) + k
            totals[i] += k
            lead = leaders[i]
            # The leader's own new count always exceeds its recorded one.
            if lead is None or c > lead[0] or (c == lead[0] and value < lead[1]):
                leaders[i] = (c, value)
        accessories = self.accessories
        for a in named:
            accessories[a] = accessories.get(a, 0) + k

    def render(self) -> str:
        """The consensus description; see ``summarize`` for the rule."""
        if not self.n:
            raise EmptyClusterError("cannot summarize an empty member list")
        need = -(-self.n // 4)
        return _render(
            *(lead[1] if total >= need else None
              for lead, total in zip(self._leaders, self._totals)),
            tuple(a for a in vocab.ACCESSORIES
                  if self.accessories.get(a, 0) >= need))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTally):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


def summarize(texts: Iterable[str]) -> str:
    """Render a consensus description for a cluster's member texts.

    Per template slot, take the most frequent value among the member texts
    that mention the slot (ties resolved lexicographically); slots mentioned
    by fewer than ceil(n/4) members are dropped. Depends only on the multiset
    of texts, so it is invariant under member permutation and duplication;
    each distinct text is parsed once and votes with its multiplicity.

    A ``SlotTally`` grown by ``plus`` in any batches renders the same text.
    """
    return SlotTally(texts).render()


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
