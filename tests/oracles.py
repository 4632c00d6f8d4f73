"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (plain dicts,
exact Fraction arithmetic, explicit sorting) so a disagreement points at the
fast implementation, not at a shared bug.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

HASH_SEED = "reid-hash-v1"
DIM = 256

STOPWORDS = {"a", "an", "the", "with", "and", "wearing", "in"}


def oracle_tokenize(text: str) -> list[str]:
    out = []
    word = []
    for ch in text.lower():
        if ch.isascii() and (ch.isdigit() or "a" <= ch <= "z"):
            word.append(ch)
        else:
            if word:
                out.append("".join(word))
                word = []
    if word:
        out.append("".join(word))
    return [w for w in out if w not in STOPWORDS]


def oracle_feature_counts(tokens: list[str]) -> dict[int, int]:
    """Signed counts per bucket, computed with plain ints."""
    feats = ["u\x1f" + t for t in tokens]
    feats += ["b\x1f" + a + "\x1f" + b for a, b in zip(tokens, tokens[1:])]
    counts: dict[int, int] = {}
    for f in feats:
        digest = hashlib.blake2b(
            (HASH_SEED + "\x1f" + f).encode("utf-8"), digest_size=9
        ).digest()
        idx = int.from_bytes(digest[:8], "big") % DIM
        sign = -1 if digest[8] & 1 else 1
        counts[idx] = counts.get(idx, 0) + sign
    return {i: c for i, c in counts.items() if c != 0}


def oracle_cosine_squared(tokens_a: list[str], tokens_b: list[str]) -> Fraction:
    """Signed square of the cosine between two hashed token bags, exact.

    Returned as sign(dot) * dot^2 / (|a|^2 |b|^2) so that callers can compare
    against float cosines without introducing square roots.
    """
    ca = oracle_feature_counts(tokens_a)
    cb = oracle_feature_counts(tokens_b)
    dot = sum(ca[i] * cb[i] for i in set(ca) & set(cb))
    na = sum(c * c for c in ca.values())
    nb = sum(c * c for c in cb.values())
    value = Fraction(dot * dot, na * nb)
    return value if dot >= 0 else -value


def oracle_cosine_float(tokens_a: list[str], tokens_b: list[str]) -> float:
    sq = oracle_cosine_squared(tokens_a, tokens_b)
    mag = math.sqrt(float(abs(sq)))
    return mag if sq >= 0 else -mag


def oracle_cmc(probes, gallery, k_max: int) -> list[float]:
    """probes: [(person_id, sim_fn)], gallery: [(uid, owner, person_id, sim_key)].

    Both metric oracles rank with an explicit stable sort on
    (-similarity, uid, owner) and then walk the list by hand.
    """
    curve = [0] * k_max
    for person_id, sims in probes:
        ranked = sorted(
            range(len(gallery)),
            key=lambda j: (-sims[j], gallery[j][0], gallery[j][1]),
        )
        first = None
        for rank, j in enumerate(ranked, start=1):
            if gallery[j][2] == person_id:
                first = rank
                break
        if first is not None:
            for k in range(first, k_max + 1):
                curve[k - 1] += 1
    n = len(probes)
    return [c / n for c in curve] if n else [0.0] * k_max


def oracle_map(probes, gallery) -> float:
    aps = []
    for person_id, sims in probes:
        ranked = sorted(
            range(len(gallery)),
            key=lambda j: (-sims[j], gallery[j][0], gallery[j][1]),
        )
        precisions = []
        correct = 0
        for rank, j in enumerate(ranked, start=1):
            if gallery[j][2] == person_id:
                correct += 1
                precisions.append(Fraction(correct, rank))
        aps.append(sum(precisions) / len(precisions) if precisions else Fraction(0))
    return float(sum(aps) / len(aps)) if aps else 0.0


def _split_garment(phrase: str) -> tuple[str | None, str]:
    """Template garment phrases are '[color] type' with single-word parts."""
    words = phrase.split(" ")
    if len(words) == 1:
        return None, words[0]
    return words[0], " ".join(words[1:])


def oracle_summary_slots(texts: list[str]) -> dict:
    """Plurality consensus by string surgery, no shared parser.

    Tallies each template slot separately (noun, upper color, upper type,
    lower color, lower type, hair, each accessory); returns the chosen value
    per slot, None when the slot fails quorum.
    """
    n = len(texts)
    quorum = -(-n // 4)  # ceil
    tallies: dict[str, list[str]] = {
        "noun": [], "upper_color": [], "upper_type": [],
        "lower_color": [], "lower_type": [], "hair": [],
    }
    acc_counts: dict[str, int] = {}
    for text in texts:
        # template shape: "<base>[, with <accessories>][, <color> hair]"
        body = text
        if body.endswith(" hair"):
            body, hair_part = body.rsplit(", ", 1)
            tallies["hair"].append(hair_part[: -len(" hair")])
        if ", with " in body:
            body, acc_part = body.split(", with ", 1)
            for acc in acc_part.replace(" and ", ", ").split(", "):
                if acc:
                    acc_counts[acc] = acc_counts.get(acc, 0) + 1
        assert body.startswith("a ")
        body = body[2:]
        if " wearing a " in body:
            noun, garments = body.split(" wearing a ", 1)
            tallies["noun"].append(noun)
            if " and " in garments:
                up, lo = garments.split(" and ", 1)
            else:
                up, lo = garments, None
            color, kind = _split_garment(up)
            if color is not None:
                tallies["upper_color"].append(color)
            tallies["upper_type"].append(kind)
            if lo is not None:
                color, kind = _split_garment(lo)
                if color is not None:
                    tallies["lower_color"].append(color)
                tallies["lower_type"].append(kind)
        else:
            tallies["noun"].append(body)

    def plurality(values: list[str]):
        if len(values) < quorum:
            return None
        counts: dict[str, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        return sorted(v for v, c in counts.items() if c == best)[0]

    return {
        "noun": plurality(tallies["noun"]),
        "upper_color": plurality(tallies["upper_color"]),
        "upper_type": plurality(tallies["upper_type"]),
        "lower_color": plurality(tallies["lower_color"]),
        "lower_type": plurality(tallies["lower_type"]),
        "hair": plurality(tallies["hair"]),
        "accessories": sorted(a for a, c in acc_counts.items() if c >= quorum),
    }


def stacked_best(uids, rows, vec):
    """The similarity argmax over a freshly stacked matrix of ``rows``, one
    per uid in that order: (uid, clamped product), ties to the lowest uid, and
    exactly 1.0 for a winning row bitwise equal to ``vec``; None if empty."""
    if not uids:
        return None
    mat = np.stack(rows)
    sims = mat @ vec
    top = sims.max()
    row = min((i for i in range(len(uids)) if sims[i] == top), key=lambda i: uids[i])
    if top >= 0.5 and np.array_equal(mat[row], vec):
        return uids[row], 1.0
    return uids[row], min(1.0, max(-1.0, float(top)))


def stacked_top(uids, rows, vec, k):
    """The ranking filter over a freshly stacked matrix of ``rows``: every uid
    whose product comes within 1e-9 of the k-th best, in row order."""
    if k >= len(uids):
        return list(uids)
    sims = np.stack(rows) @ vec
    kth = sorted(sims, reverse=True)[k - 1]
    return [uid for uid, s in zip(uids, sims) if s >= kth - 1e-9]


def brute_force_query(db, vec, k):
    """The top ``k`` of every cluster of ``db`` scored by the clamped dot
    product of ``vec`` with its embedding, ranked by (-score, uid), as
    (uid, score, summary, the three members latest first, then by robot
    and track id)."""
    scored = sorted(((min(1.0, max(-1.0, float(np.dot(vec, c.embedding)))), uid)
                     for uid, c in db.clusters.items()),
                    key=lambda pair: (-pair[0], pair[1]))
    return [(uid, score, db.clusters[uid].summary_text,
             tuple(sorted(db.clusters[uid].members,
                          key=lambda m: (-m.tick, m.robot_id, m.track_id))[:3]))
            for score, uid in scored[:k]]


def oracle_delta(side, peer):
    """What ``side`` must send ``peer`` in an exchange, found by testing
    every record ``side`` holds against what ``peer`` holds: as (uid,
    records the peer lacks in member order, member count), ascending uid.

    A cluster goes when the peer lacks any of its records or does not
    resolve its uid (directly or by a one-hop tombstone); a peer whose
    tombstones could reach its cap while absorbing gets every cluster.
    """
    held = set()
    for c in peer.clusters.values():
        held.update(m.key for m in c.members)
    every, sent = [], []
    for uid in sorted(side.clusters):
        c = side.clusters[uid]
        lacking = [m for m in c.members if m.key not in held]
        every.append((uid, lacking, len(c.members)))
        resolved = peer.tombstones.get(uid, uid) in peer.clusters
        if lacking or not resolved:
            sent.append(every[-1])
    if 0 < peer.tombstone_cap <= len(peer.tombstones) + len(sent):
        return every
    return sent
