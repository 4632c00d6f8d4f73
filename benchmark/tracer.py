"""Outside-in layer trace for one benchmark session process.

The tracer wraps the public names the program looks up at call time; it edits
nothing under ``src/``. Every wrapped call records a span (name, parent span,
start, end) in flat in-memory arrays, so a run with half a million ``embed``
calls stays a few megabytes. A span's self time is its duration minus the
durations of its direct children. Counters (records sent, bytes sent, ids
returned, ...) are taken around the wrapped calls and never written into the
run directory.

Bookkeeping that inspects program state, such as summing the bytes of both
databases before an exchange, runs inside a ``trace.count`` span so it is not
charged to the layer that called it.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_tokens: set[tuple[str, ...]] = set()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before``/``after`` update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                c = self.open("trace.count")
                before(*args, **kwargs)
                self.close(c)
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if after is not None:
                c = self.open("trace.count")
                after(result, *args, **kwargs)
                self.close(c)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        names = np.frombuffer(self.name_of, dtype=np.uint16, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(self._names)
        }


def _db_text_bytes(db) -> int:
    return sum(len(m.text.encode("utf-8")) for c in db.clusters.values() for m in c.members)


def install(tracer: Tracer) -> None:
    """Patch the layer entry points the runner and the read path reach."""
    from swarmreid import perception, providers, reid, runner
    from swarmreid.reid import LanguageOps

    counts = tracer.counts
    wrap = tracer.wrap

    def count_visible(result, robot, people, arena):
        counts["visibility.tested"] += len(people)
        counts["visibility.returned"] += len(result)

    def count_pairs(result, robots):
        counts["comm.pairs"] += len(result)

    def count_sent(a, b, theta):
        counts["exchange.records_sent"] += a.record_count() + b.record_count()
        counts["exchange.bytes_sent"] += _db_text_bytes(a) + _db_text_bytes(b)

    def count_added(stats, a, b, theta):
        counts["exchange.records_added"] += stats.records_added_to_a + stats.records_added_to_b

    def count_report(report, *args, **kwargs):
        counts["report.pairs_ranked"] += (report.detected_identity_count
                                          * sum(report.clusters_per_robot))

    runner.run_experiment = wrap("runner.loop", runner.run_experiment)
    runner.ballistic_step = wrap("world.motion", runner.ballistic_step)
    runner.visible_people = wrap("world.visibility", runner.visible_people,
                                 after=count_visible)
    runner.comm_pairs = wrap("world.comm", runner.comm_pairs, after=count_pairs)
    runner.describe = wrap("perception.describe", runner.describe)
    runner.exchange = wrap("reid.exchange", runner.exchange,
                           before=count_sent, after=count_added)
    runner.compute_report = wrap("metrics.report", runner.compute_report,
                                 after=count_report)

    perception.TrackTable.update_tracks = wrap(
        "perception.track", perception.TrackTable.update_tracks)

    def count_created(result, db, record, theta):
        counts["assign.created"] += bool(result[1])

    def count_scored(result, db, text, k):
        counts["query.clusters_scored"] += len(db.clusters)

    Db = reid.ClusterDatabase
    Db.assign_description = wrap("reid.assign", Db.assign_description, after=count_created)
    Db.query = wrap("reid.query", Db.query, after=count_scored)

    # embed/summarize reach the databases through LanguageOps objects that
    # bound the functions at import time, so the ops object is substituted.
    ref = providers.REFERENCE_OPS

    # These two counters are cheap and run once per call (half a million
    # embeds on swarm16), so they stay inline instead of in trace.count spans.
    embed_span = wrap("language.embed", ref.embed)
    summarize_span = wrap("language.summarize", ref.summarize)

    def traced_embed(tokens):
        tracer.distinct_tokens.add(tuple(tokens))
        return embed_span(tokens)

    def traced_summarize(members):
        members = list(members)
        counts["summarize.members"] += len(members)
        return summarize_span(members)

    ops = LanguageOps(embed=traced_embed, summarize=traced_summarize)
    providers.REFERENCE_OPS = ops

    # from_json's default ops was bound when reid was imported; hand it the
    # traced ops so loading and later queries are seen too.
    from_json = Db.__dict__["from_json"].__func__

    def from_json_traced_ops(cls, text, ops=ops):
        return from_json(cls, text, ops=ops)

    Db.from_json = classmethod(wrap("reid.from_json", from_json_traced_ops))

    def count_saved(out, artifact, outdir):
        counts["save.bytes"] += sum(p.stat().st_size for p in Path(out).iterdir())

    Art = runner.RunArtifact
    Art.save = wrap("runner.save", Art.save, after=count_saved)
    load = Art.__dict__["load"].__func__
    Art.load = classmethod(wrap("runner.load", load))
