"""Per-layer metrics from the spans of one traced run.

Only requests (served) or operations (library) whose root span starts
inside the measured window count. The units in ``BENCHMARK.json`` name
the normaliser: ``/req`` per served request, ``/ask`` per
``engine.ask`` call, ``/call`` per call of the named entry point,
``/write`` per ``SynchronizedWriter`` call; counts are window totals.
A layer a workload does not reach reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from measure import percentile
from tracing import END, ID, INFO, NAME, PARENT, RID, START

ROOTS = ("http.handle", "op.ask", "op.write")
TUPLE_LAYERS = ("database_generator", "translator")
MAINTENANCE = ("maintenance.insert", "maintenance.update", "maintenance.delete")


def _ms(ns: float) -> float:
    return ns / 1e6


def _dur(span) -> int:
    return span[END] - span[START]


def _self_ns(span, kids) -> int:
    """Span duration minus the part its children cover."""
    covered, edge = 0, span[START]
    for kid in sorted(kids, key=lambda k: k[START]):
        lo, hi = max(kid[START], edge), min(kid[END], span[END])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return _dur(span) - covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, t0_ns: int, t1_ns: int, cpu_ms: float, client=None):
    """Per-layer metrics of the requests rooted in ``[t0_ns, t1_ns]``.
    *cpu_ms* is the program's CPU time over the window (the busy time
    shares are taken of); *client* holds the load generator's
    per-request samples of a served run."""
    rids = {
        s[RID]
        for s in spans
        if s[PARENT] == 0 and s[NAME] in ROOTS and t0_ns <= s[START] <= t1_ns
    }
    by_id = {s[ID]: s for s in spans}
    kids = defaultdict(list)
    mine = []
    for s in spans:
        if s[RID] in rids and s[END]:
            mine.append(s)
            kids[s[PARENT]].append(s)
    by_name = defaultdict(list)
    for s in mine:
        by_name[s[NAME]].append(s)

    def total_ms(name):
        return _ms(sum(_dur(s) for s in by_name[name]))

    def under(span, names) -> bool:
        parent = by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    requests = [
        s for s in by_name["http.handle"]
        if any(k[NAME] == "frontdoor.submit" for k in kids[s[ID]])
    ]
    n_req = len(requests)
    asks = by_name["engine.ask"]
    n_ask = len(asks)
    out = {}

    # ---- front door and service (served workloads)
    pending = front_self = queue_wait = service_self = 0
    followers = retries = sheds = 0
    for fd in by_name["frontdoor.submit"]:
        info = fd[INFO] or {}
        sheds += info.get("shed", 0)
        execute = [k for k in kids[fd[ID]] if k[NAME] == "frontdoor.execute"]
        if not execute:
            followers += 1
            pending += _dur(fd)
            continue
        ex = execute[0]
        pending += ex[START] - fd[START]
        service_span = 0
        for sub in kids[ex[ID]]:
            if sub[NAME] != "service.submit":
                continue
            for serve in kids[sub[ID]]:
                n_tries = sum(1 for k in kids[serve[ID]] if k[NAME] == "engine.ask")
                retries += max(0, n_tries - 1)
                queue_wait += serve[START] - sub[END]
                # the worker resolves the future before its span closes,
                # and the loop may resume first: clip to the execution
                served = [serve[ID], serve[PARENT], serve[RID], serve[NAME],
                          serve[START], min(serve[END], ex[END]), None]
                service_self += _dur(sub) + _self_ns(served, kids[serve[ID]])
                service_span = served[END] - sub[START]
        front_self += _dur(fd) - (ex[START] - fd[START]) - service_span
    n_fd = len(by_name["frontdoor.submit"])
    out["frontdoor.pending_wait_ms"] = _ms(_ratio(pending, n_req))
    out["frontdoor.self_ms"] = _ms(_ratio(front_self, n_req))
    out["frontdoor.coalesced_frac"] = _ratio(followers, n_fd)
    out["frontdoor.sheds"] = float(sheds)
    out["service.queue_wait_ms"] = _ms(_ratio(queue_wait, n_req))
    out["service.self_ms"] = _ms(_ratio(service_self, n_req))
    out["service.retries"] = float(retries)
    out["engine.self_ms"] = _ms(
        _ratio(sum(_self_ns(a, kids[a[ID]]) for a in asks), n_ask)
    )

    # ---- caches: deltas of the cache_stats() snapshot taken per ask
    snaps = sorted(
        (
            (s[END], s[INFO]["cache"])
            for s in spans
            if s[NAME] == "engine.ask" and s[INFO] and s[INFO]["cache"]
        ),
        key=lambda snap: snap[0],
    )
    before = [c for end, c in snaps if end < t0_ns]
    inside = [c for end, c in snaps if t0_ns <= end <= t1_ns]
    for key in ("answer_hit_rate", "plan_hit_rate", "invalidations",
                "evictions"):
        out[f"cache.{key}"] = 0.0
    if inside:
        first = before[-1] if before else None
        last = inside[-1]

        def delta(layer, key):
            base = first[layer][key] if first and layer in first else 0
            return last.get(layer, {}).get(key, 0) - base

        for layer, metric in (("answers", "answer"), ("plans", "plan")):
            hits, misses = delta(layer, "hits"), delta(layer, "misses")
            out[f"cache.{metric}_hit_rate"] = _ratio(hits, hits + misses)
        out["cache.invalidations"] = float(
            delta("answers", "invalidations") + delta("plans", "invalidations")
        )
        out["cache.evictions"] = float(
            delta("answers", "evictions") + delta("plans", "evictions")
        )

    # ---- engine stages, per ask
    out["text.match_ms"] = _ratio(total_ms("text.match"), n_ask)
    out["text.seed_tids"] = _ratio(
        sum(s[INFO]["seed_tids"] for s in by_name["text.match"]), n_ask
    )
    out["schema_generator.ms"] = _ratio(total_ms("schema_generator"), n_ask)
    out["schema_generator.calls_per_ask"] = _ratio(
        len(by_name["schema_generator"]), n_ask
    )
    generated = by_name["database_generator"]
    out["database_generator.ms"] = _ratio(total_ms("database_generator"), n_ask)
    out["database_generator.tuples"] = _ratio(
        sum(s[INFO]["tuples"] for s in generated), len(generated)
    )
    # rows the generator fetched per result tuple, from the fetch_many
    # spans under each generator call (an answer's ``cost`` is read
    # from one meter that concurrent asks share)
    fetched = [
        s for s in by_name["relational.fetch_many"]
        if under(s, ("database_generator",))
    ]
    out["database_generator.reads_per_result"] = _ratio(
        sum(s[INFO]["rows"] for s in fetched),
        sum(s[INFO]["tuples"] for s in generated),
    )
    reads = [s for s in by_name["relational.fetch_many"] if under(s, ("engine.ask",))]
    inserts = [s for s in by_name["relational.insert"] if under(s, ("engine.ask",))]
    out["relational.fetch_many_calls"] = _ratio(len(reads), n_ask)
    out["relational.rows_fetched"] = _ratio(
        sum(s[INFO]["rows"] for s in reads), n_ask
    )
    out["relational.fetch_ms"] = _ratio(_ms(sum(map(_dur, reads))), n_ask)
    out["relational.insert_calls"] = _ratio(len(inserts), n_ask)
    out["relational.insert_ms"] = _ratio(_ms(sum(map(_dur, inserts))), n_ask)
    narrated = by_name["translator"]
    out["translator.ms"] = _ratio(total_ms("translator"), n_ask)
    out["translator.narrative_bytes"] = _ratio(
        sum(s[INFO]["bytes"] for s in narrated), len(narrated)
    )

    # ---- maintenance (library writes), per SynchronizedWriter call
    for verb in ("insert", "update", "delete"):
        calls = by_name[f"maintenance.{verb}"]
        out[f"maintenance.{verb}_ms"] = _ratio(
            total_ms(f"maintenance.{verb}"), len(calls)
        )
    n_writes = sum(len(by_name[m]) for m in MAINTENANCE)
    out["text.index_ms"] = _ratio(
        total_ms("text.index_add") + total_ms("text.index_remove"), n_writes
    )
    written = [
        s
        for verb in ("insert", "update", "delete")
        for s in by_name[f"relational.{verb}"]
        if under(s, MAINTENANCE)
    ]
    out["relational.write_ms"] = _ratio(_ms(sum(map(_dur, written))), n_writes)

    # ---- share of the program's CPU time spent in the tuples stage
    # and translation (their thread CPU time, which excludes waiting
    # for the interpreter lock)
    tuple_ns = sum(
        s[INFO]["cpu_ns"] for name in TUPLE_LAYERS for s in by_name[name]
    )
    out["server.tuples_share"] = _ratio(_ms(tuple_ns), cpu_ms)

    # ---- the client's side of HTTP: what the wire adds around submit
    for key in ("http.rtt_overhead_ms", "http.connect_ms",
                "http.response_bytes", "harness.gen_lag_p90_ms"):
        out[key] = 0.0
    if client is not None:
        n = len(client["ok"])
        out["http.rtt_overhead_ms"] = (
            sum(client["rtt_ms"]) / n - _ratio(total_ms("frontdoor.submit"), n_req)
        )
        out["http.connect_ms"] = sum(client["connect_ms"]) / n
        out["http.response_bytes"] = sum(client["bytes"]) / n
        out["harness.gen_lag_p90_ms"] = percentile(client["lag_ms"], 90)
    maintenance_calls = {
        verb: len(by_name[f"maintenance.{verb}"])
        for verb in ("insert", "update", "delete")
    }
    return out, maintenance_calls
