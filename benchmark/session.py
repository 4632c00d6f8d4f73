"""One benchmark stage in a fresh process, so the process-global caches
(``embed``, ``parse_description``) start cold exactly as for a CLI user.

    python3 benchmark/session.py '<json request>'

Stage ``run``: load the config, apply overrides, then time
``run_experiment`` plus ``RunArtifact.save`` into ``outdir``.
Stage ``query``: time ``RunArtifact.load`` of ``rundir``, build the query text
pool from the run's people and fresh outfits, then time each query of the
stream, where one query is ``query(text, k=5)`` on every robot's database.

Prints one JSON line. ``first_call`` is read from the monotonic clock, which
the parent shares, so the parent can measure set-up from the moment it
spawned this process. Answer digests are computed outside the timed regions.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

FRESH_OUTFITS = 50
QUERY_K = 5


def text_pool(artifact) -> list[str]:
    """Canonical descriptions of the run's people, then renderings of fresh
    outfits with the run's captioner noise, from a stream keyed by its seed."""
    import numpy as np
    from swarmreid.perception import (DescriptionNoise, canonical_description,
                                      describe, sample_attributes)

    c = artifact.config
    rng = np.random.default_rng(np.random.SeedSequence([7919, c.seed]))
    noise = DescriptionNoise(p_drop=c.noise.p_drop, p_synonym=c.noise.p_synonym,
                             p_color_confusion=c.noise.p_color_confusion)
    fresh = sample_attributes(FRESH_OUTFITS, rng)
    return ([canonical_description(a) for _, a in artifact.people]
            + [describe(a, noise, rng) for a in fresh])


def answer_digest(hits_per_db) -> str:
    ranked = [[[list(h.uid), h.score] for h in hits] for hits in hits_per_db]
    return hashlib.sha256(json.dumps(ranked).encode()).hexdigest()[:16]


def _run(req: dict, clock) -> dict:
    from swarmreid import config as cfg, runner

    c = cfg.load_config(Path(req["root"]) / "configs" / req["config"])
    c = cfg.apply_overrides(c, req["overrides"] + [f"seed={req['sim_seed']}"])
    first = clock()
    t0 = time.perf_counter()
    artifact = runner.run_experiment(c)
    artifact.save(req["outdir"])
    run_s = time.perf_counter() - t0
    return {
        "first_call": first, "run_s": run_s,
        "records_held": sum(db.record_count() for db in artifact.databases),
        "clusters": sum(len(db.clusters) for db in artifact.databases),
    }


def _query(req: dict, clock) -> dict:
    from swarmreid import runner

    first = clock()
    t0 = time.perf_counter()
    artifact = runner.RunArtifact.load(req["rundir"])
    load_s = time.perf_counter() - t0
    pool = text_pool(artifact)
    stream = req["stream"] if req["stream"] is not None else list(range(len(pool)))
    latencies, answers = [], []
    for i in stream:
        text = pool[i]
        t = time.perf_counter()
        try:
            hits = [db.query(text, k=QUERY_K) for db in artifact.databases]
        except Exception as exc:  # counted as a failed query by the parent
            latencies.append(time.perf_counter() - t)
            answers.append(f"error: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t)
        answers.append(answer_digest(hits))
    return {
        "first_call": first, "load_s": load_s, "latencies_s": latencies,
        "answers": answers, "distinct_texts": len({pool[i] for i in stream}),
        "pool_sha256": hashlib.sha256("\n".join(pool).encode()).hexdigest(),
    }


def main() -> int:
    clock = time.monotonic
    req = json.loads(sys.argv[1])
    import swarmreid

    src = Path(req["root"], "src").resolve()
    if Path(swarmreid.__file__).resolve().parent.parent != src:
        raise SystemExit(f"swarmreid imported from {swarmreid.__file__}, not {src}")

    tracer = None
    if req["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    out = _run(req, clock) if req["stage"] == "run" else _query(req, clock)

    if tracer is not None:
        from swarmreid import vocab
        parse = vocab.parse_description.cache_info()
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["counts"]["embed.distinct"] = len(tracer.distinct_tokens)
        out["counts"]["parse.hits"] = parse.hits
        out["counts"]["parse.misses"] = parse.misses
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
