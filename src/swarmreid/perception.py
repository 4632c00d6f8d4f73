"""Simulated perception channel: tracking and description generation.

Stands in for a detector + tracker + vision-language captioner. Detection is
perfect given visibility; tracker imperfection is modeled by visibility gaps
and a per-tick breakage probability; captioner imperfection by attribute
dropout, synonym substitution, and adjacent-color confusion.

Each record carries the ground-truth ``person_id`` sealed inside purely so
evaluation can score the run and a snapshot can keep it. Summarizers see
only member texts, so no algorithmic path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import language, vocab
from .errors import ContractError, EmptyDescriptionError
from .vocab import (
    ACCESSORIES,
    LOWER_TYPES,
    NOUNS,
    PALETTE,
    UPPER_TYPES,
    COLOR_CONFUSIONS,
    SYNONYMS,
    PersonAttributes,
)

__all__ = [
    "PersonAttributes",
    "DescriptionNoise",
    "NO_NOISE",
    "DescriptionRecord",
    "TrackTable",
    "describe",
    "canonical_description",
    "sample_attributes",
]


@dataclass(frozen=True)
class DescriptionNoise:
    """Knobs of the simulated captioner, each a per-slot probability."""

    p_drop: float = 0.0
    p_synonym: float = 0.0
    p_color_confusion: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_synonym", "p_color_confusion"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ContractError(f"{name}={v} outside [0, 1]")

    @property
    def any(self) -> bool:
        return self.p_drop > 0 or self.p_synonym > 0 or self.p_color_confusion > 0


NO_NOISE = DescriptionNoise()


class DescriptionRecord(NamedTuple):
    """One emitted description, stamped with who/when/which track."""

    text: str
    tokens: tuple[str, ...]
    robot_id: int
    tick: int
    track_id: int
    person_id: int
    # Dedup identity (robot_id, track_id, tick) and track (robot_id,
    # track_id), built once: exchange and loading compare the keys of many
    # records, and the owner's track index keys its entries by these tuples.
    key: tuple[int, int, int]
    track: tuple[int, int]

    @classmethod
    def create(cls, text: str, robot_id: int, tick: int, track_id: int,
               person_id: int) -> "DescriptionRecord":
        """The record of ``text``, a str, and the one way to build one; the
        ids and the tick must be ints, not bools. Loading a snapshot builds
        its members here, so this is where their fields are checked."""
        if type(text) is not str:
            raise ContractError(f"record text {text!r} is not a string")
        for name, value in (("robot_id", robot_id), ("tick", tick),
                            ("track_id", track_id), ("person_id", person_id)):
            if type(value) is not int:
                raise ContractError(f"record {name} {value!r} is not an integer")
        tokens = language.cached_tokens(text)
        if not tokens:
            raise EmptyDescriptionError(f"description {text!r} has no usable tokens")
        return cls(text, tokens, robot_id, tick, track_id, person_id,
                   (robot_id, track_id, tick), (robot_id, track_id))


class TrackTable:
    """Per-robot track bookkeeping. Track ids are never reused; a retired
    track never becomes live again."""

    def __init__(self) -> None:
        # person id -> [track id, last seen tick] of each live track
        self._live: dict[int, list[int]] = {}
        self._next_track_id = 0
        self._last_tick: int | None = None

    def update_tracks(self, visible: list[int], tick: int, max_gap_ticks: int,
                      p_track_break: float, rng) -> list[tuple[int, int]]:
        """Advance one tick; returns (track_id, person_id) per visible person.

        A track unseen for more than ``max_gap_ticks`` is retired. A track
        seen again breaks with probability ``p_track_break``, in which case
        the person gets a fresh track id this very tick.
        """
        if self._last_tick is not None and tick <= self._last_tick:
            raise ContractError(f"tick {tick} not after previous {self._last_tick}")
        self._last_tick = tick
        live = self._live
        for person_id, (_, last_seen) in list(live.items()):
            if tick - last_seen > max_gap_ticks:
                del live[person_id]
        out = []
        for person_id in visible:
            track = live.get(person_id)
            if track is not None and p_track_break > 0 and rng.random() < p_track_break:
                track = None
            if track is None:
                track = live[person_id] = [self._next_track_id, tick]
                self._next_track_id += 1
            else:
                track[1] = tick
            out.append((track[0], person_id))
        return out


def describe(attributes: PersonAttributes, noise: DescriptionNoise = NO_NOISE,
             rng=None) -> str:
    """Render a (possibly corrupted) description of a person.

    Every optional slot is dropped independently with ``p_drop`` (the noun
    never drops); noun/garment words are replaced by their synonym-table
    entry with ``p_synonym``; colors by their confusion-table entry with
    ``p_color_confusion``. With all probabilities zero this is a pure
    function of the attributes.
    """
    if noise.any and rng is None:
        raise ContractError("an rng is required when any noise knob is nonzero")

    def flip(p: float) -> bool:
        return p > 0 and rng.random() < p

    keep_upper = not flip(noise.p_drop)
    has_lower = attributes.lower_type != "none"
    keep_lower = has_lower and not flip(noise.p_drop)
    accessories = tuple(
        a for a in ACCESSORIES
        if a in attributes.accessories and not flip(noise.p_drop)
    )
    keep_hair = attributes.hair_color is not None and not flip(noise.p_drop)

    def syn(word: str) -> str:
        return SYNONYMS[word] if flip(noise.p_synonym) else word

    def confuse(color: str) -> str:
        return COLOR_CONFUSIONS[color] if flip(noise.p_color_confusion) else color

    noun = syn(attributes.noun)
    upper = (confuse(attributes.upper_color), syn(attributes.upper_type)) if keep_upper else None
    lower = None
    if keep_lower:
        lower = (confuse(attributes.lower_color), syn(attributes.lower_type))
    hair = confuse(attributes.hair_color) if keep_hair else None
    return vocab.render_description(
        noun=noun, upper=upper, lower=lower, accessories=accessories, hair_color=hair
    )


def canonical_description(attributes: PersonAttributes) -> str:
    """The noise-free rendering; pure function of the attributes."""
    return describe(attributes, NO_NOISE, None)


def _draw_attributes(rng) -> PersonAttributes:
    noun = NOUNS[rng.integers(len(NOUNS))]
    upper_type = UPPER_TYPES[rng.integers(len(UPPER_TYPES))]
    upper_color = PALETTE[rng.integers(len(PALETTE))]
    if upper_type == "dress":
        lower_type = LOWER_TYPES[rng.integers(len(LOWER_TYPES))]
    else:
        lower_type = LOWER_TYPES[rng.integers(len(LOWER_TYPES) - 1)]
    lower_color = None if lower_type == "none" else PALETTE[rng.integers(len(PALETTE))]
    accessories = frozenset(a for a in ACCESSORIES if rng.random() < 0.3)
    hair_options = PALETTE + (None,)
    hair_color = hair_options[rng.integers(len(hair_options))]
    return PersonAttributes(
        noun=noun, upper_color=upper_color, upper_type=upper_type,
        lower_type=lower_type, lower_color=lower_color,
        accessories=accessories, hair_color=hair_color,
    )


def sample_attributes(count: int, rng, distinct: bool = False,
                      max_similarity: float = 0.75) -> list[PersonAttributes]:
    """Sample outfits from the vocabularies with a seeded generator.

    With ``distinct`` set, outfits are rejection-sampled until every pair of
    canonical descriptions embeds with cosine below ``max_similarity``, so a
    matching threshold above that value can never conflate two people.
    """
    out: list[PersonAttributes] = []
    embeddings = []
    for _ in range(count):
        for _attempt in range(1000):
            attrs = _draw_attributes(rng)
            if not distinct:
                out.append(attrs)
                break
            v = language.embed(language.tokenize(canonical_description(attrs)))
            if all(language.cosine(v, u) < max_similarity for u in embeddings):
                out.append(attrs)
                embeddings.append(v)
                break
        else:
            raise ContractError(
                f"could not draw {count} outfits separated below {max_similarity}"
            )
    return out
