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
from array import array
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

# A tally's counts, by position: the member count; one count per accessory
# of vocab.ACCESSORIES; per slot, the total of its votes; per slot, the
# position of its leader's votes (0 before its first vote); from _VOTES on,
# the votes of each (slot, value) at the position _votes_of gave it, run-wide.
_TOTALS = 1 + len(vocab.ACCESSORIES)
_LEADERS = _TOTALS + len(_VOTED_SLOTS)
_VOTES = _LEADERS + len(_VOTED_SLOTS)
# (slot index, value) -> position, and the value at each position.
_vote_positions: dict[tuple[int, str], int] = {}
_vote_values: list[str | None] = [None] * _VOTES


@lru_cache(maxsize=None)
def _votes_of(text: str) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
    """What ``text`` adds to a tally: (slot index, position) of each slot
    value it names, the positions of the accessories it names, and the tally
    length they need. A value takes the next position when first parsed, so
    any word the parser returns is counted. Cached per text."""
    parsed = vocab.parse_description(text)
    votes = []
    for i, value in enumerate(_slot_values(parsed)):
        if value is not None:
            position = _vote_positions.get((i, value))
            if position is None:
                position = _vote_positions[i, value] = len(_vote_values)
                _vote_values.append(value)
            votes.append((i, position))
    named = tuple(1 + vocab.ACCESSORIES.index(a) for a in parsed.accessories)
    return tuple(votes), named, max((p for _, p in votes), default=_VOTES - 1) + 1


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

    One flat ``array('I')`` of counts, laid out as above, as far as the
    highest vote position counted; tallies equal in every count are equal,
    whatever their lengths. Votes only ever grow, so each slot's leader (most
    votes, ties to the smallest value) is kept as votes are counted, and
    ``render`` costs one step per slot. A cluster that grows takes ``plus``.
    """

    __slots__ = ("counts",)

    def __init__(self, texts: Iterable[str] = ()) -> None:
        """Tally member ``texts``. Each distinct text is parsed once and
        votes with its multiplicity."""
        self.counts = array("I", [0]) * _VOTES
        for text, k in Counter(texts).items():
            self._add(text, k)

    def plus(self, texts: Iterable[str]) -> "SlotTally":
        """A new tally of these members and ``texts``; this one is unchanged."""
        twin = SlotTally.__new__(SlotTally)
        twin.counts = self.counts[:]
        for text in texts:
            twin._add(text)
        return twin

    def _add(self, text: str, k: int = 1) -> None:
        """Count ``k`` more members whose description is ``text``; only
        while the tally is being built. The counts grow as ``text`` needs."""
        votes, named, length = _votes_of(text)
        counts = self.counts
        if length > len(counts):
            counts = self.counts = counts + array("I", [0]) * (length - len(counts))
        counts[0] += k
        for a in named:
            counts[a] += k
        values = _vote_values
        for i, position in votes:
            c = counts[position] = counts[position] + k
            counts[_TOTALS + i] += k
            lead = counts[_LEADERS + i]
            # The leader's own new count equals itself, so it stays leader.
            if not lead or c > counts[lead] or (
                    c == counts[lead] and values[position] < values[lead]):
                counts[_LEADERS + i] = position

    def render(self) -> str:
        """The consensus description; see ``summarize`` for the rule."""
        counts = self.counts
        if not counts[0]:
            raise EmptyClusterError("cannot summarize an empty member list")
        need = -(-counts[0] // 4)
        values = _vote_values
        return _render(
            *(values[counts[_LEADERS + i]] if counts[_TOTALS + i] >= need else None
              for i in range(len(_VOTED_SLOTS))),
            tuple(a for i, a in enumerate(vocab.ACCESSORIES, 1)
                  if counts[i] >= need))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTally):
            return NotImplemented
        short, long = sorted((self.counts, other.counts), key=len)
        return long[:len(short)] == short and not any(long[len(short):])


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
