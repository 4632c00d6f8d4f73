"""Closed attribute vocabularies, the canonical description template, and its parser.

Every description a robot produces is an instance of one sentence template:

    a <noun> wearing a <color> <upper> and <color> <lower>[, with <accessories>][, <hair_color> hair]

The renderer and the parser here are exact inverses on that template family,
which is what lets the consensus summarizer recover per-slot values from raw
member texts without any learned component.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import ContractError

PALETTE: tuple[str, ...] = (
    "black", "white", "gray", "red", "blue", "green",
    "yellow", "orange", "purple", "pink", "brown", "beige",
)
NOUNS: tuple[str, ...] = ("man", "woman", "person", "lady", "boy", "girl")
UPPER_TYPES: tuple[str, ...] = ("t-shirt", "shirt", "hoodie", "jacket", "dress")
LOWER_TYPES: tuple[str, ...] = ("jeans", "pants", "skirt", "shorts", "none")
ACCESSORIES: tuple[str, ...] = ("hat", "glasses", "backpack", "bag")


def _load_table(name: str, key: str) -> dict[str, str]:
    raw = json.loads(resources.files("swarmreid.data").joinpath(name).read_text())
    return dict(raw[key])


SYNONYMS = _load_table("synonyms.json", "synonyms")
COLOR_CONFUSIONS = _load_table("color_confusion.json", "confusions")

# Word -> garment slot ("upper"/"lower"), covering vocabulary words and their
# synonym replacements so noisy texts still classify.
GARMENT_SLOT: dict[str, str] = {}
for _w in UPPER_TYPES:
    GARMENT_SLOT[_w] = "upper"
    if _w in SYNONYMS:
        GARMENT_SLOT[SYNONYMS[_w]] = "upper"
for _w in LOWER_TYPES:
    if _w == "none":
        continue
    GARMENT_SLOT[_w] = "lower"
    if _w in SYNONYMS:
        GARMENT_SLOT[SYNONYMS[_w]] = "lower"


@dataclass(frozen=True)
class PersonAttributes:
    """Ground-truth outfit of one simulated person.

    ``lower_type`` may be "none" only under a dress; ``lower_color`` is None
    exactly when there is no lower garment. ``hair_color`` None means hair is
    never described.
    """

    noun: str
    upper_color: str
    upper_type: str
    lower_type: str
    lower_color: str | None
    accessories: frozenset[str] = frozenset()
    hair_color: str | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.noun not in NOUNS:
            problems.append(f"noun={self.noun!r}")
        if self.upper_color not in PALETTE:
            problems.append(f"upper_color={self.upper_color!r}")
        if self.upper_type not in UPPER_TYPES:
            problems.append(f"upper_type={self.upper_type!r}")
        if self.lower_type not in LOWER_TYPES:
            problems.append(f"lower_type={self.lower_type!r}")
        if self.lower_type == "none":
            if self.upper_type != "dress":
                problems.append("lower_type='none' requires upper_type='dress'")
            if self.lower_color is not None:
                problems.append("lower_color must be None when lower_type='none'")
        elif self.lower_color not in PALETTE:
            problems.append(f"lower_color={self.lower_color!r}")
        if not frozenset(self.accessories) <= frozenset(ACCESSORIES):
            problems.append(f"accessories={sorted(self.accessories)!r}")
        if self.hair_color is not None and self.hair_color not in PALETTE:
            problems.append(f"hair_color={self.hair_color!r}")
        if problems:
            raise ContractError("invalid PersonAttributes: " + ", ".join(problems))

    def to_dict(self) -> dict:
        return {
            "noun": self.noun,
            "upper_color": self.upper_color,
            "upper_type": self.upper_type,
            "lower_type": self.lower_type,
            "lower_color": self.lower_color,
            "accessories": sorted(self.accessories),
            "hair_color": self.hair_color,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PersonAttributes":
        return cls(
            noun=d["noun"],
            upper_color=d["upper_color"],
            upper_type=d["upper_type"],
            lower_type=d["lower_type"],
            lower_color=d.get("lower_color"),
            accessories=frozenset(d.get("accessories", ())),
            hair_color=d.get("hair_color"),
        )


@dataclass(frozen=True)
class ParsedSlots:
    """Per-slot values recovered from one description text.

    A value of None means the text does not mention that slot. Values are
    kept verbatim (synonyms and off-palette colors survive), so consensus
    voting happens over what was actually said.
    """

    noun: str | None = None
    upper_color: str | None = None
    upper_type: str | None = None
    lower_color: str | None = None
    lower_type: str | None = None
    accessories: tuple[str, ...] = ()
    hair_color: str | None = None


def _accessory_phrase(accessories: tuple[str, ...]) -> str:
    if len(accessories) == 1:
        return accessories[0]
    return ", ".join(accessories[:-1]) + " and " + accessories[-1]


def render_description(
    noun: str,
    upper: tuple[str | None, str] | None = None,
    lower: tuple[str | None, str] | None = None,
    accessories: tuple[str, ...] = (),
    hair_color: str | None = None,
) -> str:
    """Render slot values through the canonical template.

    ``upper``/``lower`` are (color, type) pairs; a None color renders the bare
    garment word. Accessories render in the order given.
    """
    parts = [f"a {noun}"]
    garments = []
    for pair in (upper, lower):
        if pair is None:
            continue
        color, gtype = pair
        garments.append(f"{color} {gtype}" if color else gtype)
    if garments:
        parts.append(" wearing a " + " and ".join(garments))
    if accessories:
        parts.append(", with " + _accessory_phrase(tuple(accessories)))
    if hair_color:
        parts.append(f", {hair_color} hair")
    return "".join(parts)


_HAIR_RE = re.compile(r",\s*([a-z-]+)\s+hair\s*$")
_WITH_RE = re.compile(r",\s*with\s+(.+)$")
_BASE_RE = re.compile(r"^a\s+([a-z-]+)(?:\s+wearing\s+a\s+(.+))?$")
_NOUN_ONLY_RE = re.compile(r"^an?\s+([a-z-]+)")


def _parse_garment_phrase(phrase: str) -> tuple[str | None, str | None, str | None]:
    """Return (slot, color, type) for one garment phrase, best effort."""
    words = phrase.replace(",", " ").split()
    gtype = next((w for w in words if w in GARMENT_SLOT), None)
    if gtype is None:
        return None, None, None
    color = next((w for w in words if w in PALETTE), None)
    if color is None:
        # Off-palette color word (e.g. a confused or invented color): take the
        # first word that is not the garment type or an article.
        color = next((w for w in words if w != gtype and w not in ("a", "an")), None)
    return GARMENT_SLOT[gtype], color, gtype


@lru_cache(maxsize=None)
def parse_description(text: str) -> ParsedSlots:
    """Recover slot values from a template-family description text.

    Texts outside the template family degrade gracefully: whatever slots can
    be identified are returned, the rest stay None.
    """
    s = text.strip().lower()
    hair = None
    m = _HAIR_RE.search(s)
    if m:
        hair = m.group(1)
        s = s[: m.start()]
    accessories: tuple[str, ...] = ()
    m = _WITH_RE.search(s)
    if m:
        pieces = {p.strip() for p in re.split(r",|\band\b", m.group(1))}
        accessories = tuple(a for a in ACCESSORIES if a in pieces)
        s = s[: m.start()]
    noun = None
    upper: tuple[str | None, str | None] = (None, None)
    lower: tuple[str | None, str | None] = (None, None)
    m = _BASE_RE.match(s)
    if m:
        noun = m.group(1)
        rest = m.group(2)
        if rest:
            for phrase in rest.split(" and "):
                slot, color, gtype = _parse_garment_phrase(phrase)
                if slot == "upper" and upper == (None, None):
                    upper = (color, gtype)
                elif slot == "lower" and lower == (None, None):
                    lower = (color, gtype)
    else:
        m = _NOUN_ONLY_RE.match(s)
        if m:
            noun = m.group(1)
    return ParsedSlots(
        noun=noun,
        upper_color=upper[0],
        upper_type=upper[1],
        lower_color=lower[0],
        lower_type=lower[1],
        accessories=accessories,
        hair_color=hair,
    )
