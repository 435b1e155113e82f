"""Reduce the traced run's spans to the per-layer metrics.

Client spans (load generator) and server spans (one dump per server
child) are merged into one forest.  Within a process a span's parent
was recorded when it opened; a server span with no parent is attached
to the client request whose interval contains it — one connection, one
shared monotonic clock.  Every span then carries the id of its
top-level ancestor as its trace id.  Only traces whose top-level span
lies inside one of the cycle's timed sections (the loop and each timed
recovery) are kept: warm-up, server start-up and the checks around the
timed sections are left out.

Self time is a span's duration minus the time covered by the union of
its children's intervals.  For a commit the children of ``client.run``
and their descendants are the blocking path, so their self times sum to
the ``client.run`` duration exactly when every child lies inside its
parent and no two siblings overlap: :func:`self_time_check` tests that.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_left
from collections import defaultdict

# ROADMAP item 1's in-engine phase medians (µs), the table the traced
# run's split is reported against.
ROADMAP_PHASES_US = {"rebase": 19, "validate": 15, "derive": 11, "wal": 29}


class Span:
    __slots__ = ("key", "parent", "name", "start", "end", "tags",
                 "children", "trace")

    def __init__(self, proc, raw):
        sid, parent, self.name, self.start, self.end, self.tags = raw
        self.key = (proc, sid)
        self.parent = None if parent is None else (proc, parent)
        self.children: list[Span] = []
        self.trace = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, reach = 0.0, None
        for c in sorted(self.children, key=lambda c: c.start):
            if reach is None or c.start > reach:
                covered += c.end - c.start
                reach = c.end
            elif c.end > reach:
                covered += c.end - reach
                reach = c.end
        return self.duration - covered


class Forest:
    """All spans of one traced run, linked across processes.  ``pairs``
    holds one ``(client_spans, server_spans, windows)`` triple per
    cycle, ``windows`` being the cycle's timed intervals."""

    def __init__(self, pairs: list[tuple[list, list, list]]):
        spans: list[Span] = []
        windows: dict[str, list] = {}
        for k, (client, server, timed) in enumerate(pairs):
            windows[f"client{k}"] = windows[f"server{k}"] = timed
            client_spans = [Span(f"client{k}", raw) for raw in client]
            spans += client_spans
            requests = sorted((s for s in client_spans
                               if s.name.startswith("client.request.")),
                              key=lambda s: s.start)
            starts = [r.start for r in requests]
            for raw in server:
                s = Span(f"server{k}", raw)
                if s.parent is None:
                    i = bisect_left(starts, s.start) - 1
                    if i >= 0 and requests[i].end >= s.end:
                        s.parent = requests[i].key
                spans.append(s)
        by_key = {s.key: s for s in spans}
        for s in spans:
            if s.parent is not None:
                by_key[s.parent].children.append(s)
        for s in sorted(spans, key=lambda s: s.start):
            parent = by_key.get(s.parent) if s.parent is not None else None
            s.trace = s.key if parent is None else (parent.trace or s.key)

        def timed(root: Span) -> bool:
            return any(a <= root.start and root.end <= b
                       for a, b in windows[root.key[0]])

        kept = {key for key, s in by_key.items()
                if s.trace == key and timed(s)}
        self.spans = spans = [s for s in spans if s.trace in kept]
        self.by_key = {s.key: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def named(self, name: str, server: bool | None = None) -> list[Span]:
        spans = self.by_name.get(name, [])
        if server is None:
            return spans
        return [s for s in spans if s.key[0].startswith("server") == server]

    def descendants(self, span: Span):
        stack = list(span.children)
        while stack:
            s = stack.pop()
            yield s
            stack.extend(s.children)

    def export(self, path) -> None:
        """One merged file: ``[proc, sid, parent, name, start, end,
        tags, trace]`` per span, parent and trace as ``proc/sid``."""
        def ref(key):
            return None if key is None else f"{key[0]}/{key[1]}"
        rows = [[s.key[0], s.key[1], ref(s.parent), s.name, s.start, s.end,
                 s.tags, ref(s.trace)]
                for s in sorted(self.spans, key=lambda s: s.start)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_time_check(forest: Forest, tolerance: float = 0.01) -> dict:
    """For each commit (``client.run``), the summed self times of its
    subtree against its duration."""
    worst, bad, n = 0.0, 0, 0
    shares: dict[str, float] = defaultdict(float)
    for run in forest.named("client.run"):
        n += 1
        total = run.self_time()
        shares["client.run"] += total
        for d in forest.descendants(run):
            t = d.self_time()
            total += t
            shares[d.name] += t
        err = abs(total - run.duration) / run.duration
        worst = max(worst, err)
        bad += err > tolerance
    return {"commits": n, "violations": bad, "worst_rel_error": worst,
            "self_us_per_commit": {k: v / n * 1e6
                                   for k, v in shares.items()} if n else {}}


SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def commit_appends(forest: Forest) -> list[Span]:
    """The server's WAL appends made by a commit (not by a checkpoint)."""
    commits = {s.key for s in forest.named("store.commit")}
    return [a for a in forest.named("wal.append", server=True)
            if a.parent in commits]


def per_layer(forest: Forest, counts: dict, wal_bytes: int,
              overhead_ms: float) -> dict[str, tuple[float, str, int]]:
    """Every per-layer metric as ``name -> (value, unit, samples)``."""
    out: dict[str, tuple[float, str, int]] = {}

    def p50(name, values, unit="us"):
        values = list(values)
        out[name] = (_median(values) * SCALE[unit], unit, len(values))

    def per(name, total, n, unit="count"):
        out[name] = (total / max(1, n), unit, n)

    def durations(name, server):
        return [s.duration for s in forest.named(name, server)]

    def children(span, name):
        return [c for c in span.children if c.name == name]

    runs = forest.named("client.run")
    # Head reads of ``manager``; the end-of-cycle dump of every relation
    # is a check, not part of the load.
    reads = [r for r in forest.named("client.request.read")
             if r.tags["relation"] == "manager"]
    requests = [s for s in forest.spans
                if s.name.startswith("client.request.")]
    for name in ("client.run", "client.request.begin",
                 "client.request.stage", "client.request.commit",
                 "io.encode_frame"):
        p50(f"{name}.p50_us", durations(name, False))
    p50("client.request.read.p50_us", (r.duration for r in reads))
    per("client.round_trips_per_commit",
        sum(c.name.startswith("client.request.")
            for r in runs for c in r.children), len(runs))
    p50("io.frame_decode.p50_us",
        (sum(c.duration for c in children(r, "io.frame_decode"))
         for r in requests))
    per("io.request_bytes_per_commit",
        sum(d.tags["bytes"] for r in runs for d in forest.descendants(r)
            if d.name == "io.encode_frame"), len(runs), "bytes")
    per("io.response_bytes_per_read",
        sum(c.tags["bytes"] for r in reads
            for c in children(r, "io.frame_decode")), len(reads), "bytes")

    def within(request, name):
        return [d for d in forest.descendants(request) if d.name == name]

    p50("server.dispatch.commit.residue_p50_us",
        (r.duration - sum(s.duration for s in within(r, "session.commit"))
         for r in forest.named("client.request.commit")))
    handlers = [within(r, "server.read") for r in reads]
    encodes = [children(r, "server.encode_frame") for r in reads]
    p50("server.dispatch.read.residue_p50_us",
        (r.duration - sum(s.duration for s in h + e)
         for r, h, e in zip(reads, handlers, encodes)))
    p50("server.read.rows.p50_us",
        (sum(s.tags["rows_s"] for s in h) for h in handlers))
    p50("server.encode_frame.p50_us",
        (sum(s.duration for s in e) for e in encodes))

    sessions = forest.named("session.commit")
    commits = forest.named("store.commit")
    checkpoints = forest.named("store.checkpoint")
    appends = forest.named("wal.append", server=True)
    for name in ("session.commit", "store.commit", "probe_index.apply",
                 "txn.net_changes", "commit.validate", "txn.write_footprint",
                 "commit.derive", "graph.add_commit", "obs.tracer.record",
                 "wal.rotate"):
        p50(f"{name}.p50_us", durations(name, True))
    per("session.retries_per_commit", len(commits) - len(sessions),
        len(sessions))
    p50("store.commit.self_p50_us", (s.self_time() for s in commits))
    p50("store.checkpoint.p50_ms", (s.duration for s in checkpoints), "ms")
    per("store.checkpoints_per_1k_commits", 1000.0 * len(checkpoints),
        len(commits))
    p50("wal.checkpoint_record.p50_ms",
        durations("wal.checkpoint_record", True), "ms")
    p50("commit.wal_append.p50_us",
        (a.duration for a in commit_appends(forest)))
    per("wal.bytes_per_append", wal_bytes, len(appends), "bytes")
    per("obs.histogram.observe.per_commit",
        counts.get("obs.histogram.observe", 0), len(commits))

    for name in ("replay.apply_wal_record", "txn.from_records",
                 "replay.derive"):
        p50(f"{name}.p50_us", durations(name, False))
    p50("replay.self_s",
        (s.self_time() for s in forest.named("replay.full")), "s")
    p50("io.database_from_dict.p50_ms",
        durations("io.database_from_dict", False), "ms")
    p50("replica.sync.p50_ms", durations("replica.sync", False), "ms")
    catch_ups = forest.named("replica.catch_up")
    syncs = [children(cu, "replica.sync") for cu in catch_ups]
    per("replica.syncs_per_catchup", sum(map(len, syncs)), len(catch_ups))
    p50("replica.wait_s",
        (cu.duration - sum(c.duration for c in s)
         for cu, s in zip(catch_ups, syncs)), "s")
    out["trace.overhead.commit_p50_ms"] = (overhead_ms, "ms", len(runs))
    return out


def telemetry_cross_check(forest: Forest, snapshot: dict) -> list[dict]:
    """Production histogram p50 beside the outside-timed p50 for the
    validate, derive and WAL-append phases; a pair more than one
    histogram bucket apart is flagged."""
    from repro.obs.metrics import DEFAULT_BUCKETS

    histograms = snapshot.get("metrics", {}).get("histograms", {})
    outside = {
        "validate": [s.duration for s in
                     forest.named("commit.validate", server=True)],
        "derive": [s.duration for s in
                   forest.named("commit.derive", server=True)],
        "wal_append": [a.duration for a in commit_appends(forest)],
    }
    rows = []
    for phase, values in outside.items():
        summary = histograms.get(f"store.commit.{phase}_seconds", {})
        hist_p50 = summary.get("p50")
        out_p50 = _median(values)
        apart = (None if hist_p50 is None else
                 abs(bisect_left(DEFAULT_BUCKETS, hist_p50)
                     - bisect_left(DEFAULT_BUCKETS, out_p50)))
        rows.append({"phase": phase, "histogram_p50_us":
                     None if hist_p50 is None else hist_p50 * 1e6,
                     "outside_p50_us": out_p50 * 1e6,
                     "buckets_apart": apart,
                     "flag": apart is None or apart > 1})
    return rows


def phase_split(forest: Forest) -> dict[str, float]:
    """Per-commit medians (µs) of the four in-engine phases, timed from
    outside, keyed like :data:`ROADMAP_PHASES_US`."""
    def p50(durations):
        return _median(durations) * 1e6

    return {
        "rebase": p50(sum(d.duration for d in c.children
                          if d.name in ("txn.net_changes",
                                        "txn.write_footprint"))
                      for c in forest.named("store.commit", server=True)),
        "validate": p50(s.duration for s in
                        forest.named("commit.validate", server=True)),
        "derive": p50(s.duration for s in
                      forest.named("commit.derive", server=True)),
        "wal": p50(a.duration for a in commit_appends(forest)),
    }
