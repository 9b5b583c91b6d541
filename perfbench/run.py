"""The repository benchmark: served and embedded précis latency and CPU.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 25 --trace 0

Workloads (fixed parameters in ``workloads.SPECS``):

``serve-hot``
    ``repro serve --cache-size 1024`` over 2,000 generated movies, open
    loop Poisson at 250 requests/s, Zipf(1.1) over a 500-query catalog
    after a one-connection warm-up pass: every ask is an answer-cache
    hit.
``serve-cold``
    ``repro serve`` (no cache) over 10,000 movies, open loop at 15
    requests/s: unbounded person-name phrases (one from each of equal
    slices of the names ordered by movie count) and bounded single
    words; with ``--trace 1`` a fixed geometric ladder of rates then
    gives ``capacity_rps``.
``library-rw``
    ``PrecisEngine(cache=True)`` + ``SynchronizedWriter`` in their own
    process over 2,000 movies, one thread, closed loop over a block of
    2,400 operations that leaves the database as it found it: 90% asks
    (Zipf(0.8) over 5,000 queries), 10% writes.

Each run generates its inputs from ``--seed`` (``repro init-demo`` plus
seeded query/write lists), starts the program as a child process five
times (``setup_s`` is the median spawn-to-ready time; the fifth one is
measured), drives it for ``--seconds`` and checks every answer against
an uncached in-process reference engine (served) or sampled cached
answers against a fresh engine over the mutated data (library). A
mismatch fails the run with exit code 1. A served answer may differ
from the reference in a larger ``cost`` alone when it overlapped
another request: tuple reads are charged to one meter per database, so
two asks running at once on the two workers each report both; those
responses are counted and reported, not failed.

The host's CPU speed changes from second to second, so each run sends
(or, for the library, runs) one seeded block of work several times
over and keeps each part's best: a request's or operation's latency is
its least over the replays, and CPU time is the least a slice of the
block took (served: ``/proc/<pid>/task/*/schedstat`` read every
0.25 or 0.5 s; library: each operation's own process CPU time).

The end-to-end metrics (names and units in ``BENCHMARK.json``) are
reported by every workload: ``setup_s``, ``ask_p50_ms`` (served:
latency from each request's scheduled send time), ``cpu_ms_per_op``
(the program's CPU time per operation of the block), ``ops_per_s``
(served: requests answered per second; library: from the operations'
best wall times) and ``rss_mb`` (peak). Printed beside them:
``ask_p90_ms`` and every ``*_p99_ms`` that has ten samples beyond it,
the same over every request, ``capacity_rps`` (serve-cold, traced
runs), ``write_p50_ms``/``write_p99_ms`` (library-rw) and
``error_frac``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload untraced and then traced (the program started through
``tracing.py``) and reports the per-layer metrics, the tracing overhead
and whether each wrapped entry point recorded calls; a workload that
does not do what it is designed for fails the run.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import per_layer
from library_rw import answer_bytes
from measure import (
    describe, percentile, proc_peak_rss_mb, proc_threads_cpu_ms, stamp,
    supported,
)
from tracing import EXPECTED, NAME
from workloads import (
    CONNECTIONS, SPECS, ask_target, catalog, served_plan, vocabulary,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUPS = 5
READY_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def generate(data_dir: Path, movies: int, seed: int) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", "init-demo", str(data_dir),
         "--movies", str(movies), "--seed", str(seed)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=120,
    )


# ------------------------------------------------------------------ HTTP


def http_get(port: int, request: bytes):
    """One request on a fresh connection (the server closes each one);
    returns ``(status, body, connect seconds)``."""
    start = time.monotonic()
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    connected = time.monotonic()
    try:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body, connected - start


def cost_only(body: bytes, expected: bytes) -> bool:
    """Equal answers except for a larger ``cost``. The engine charges
    tuple reads to one meter per database, so an ask running beside
    another on the second worker also reports the other's reads; the
    rest of the answer is exact. The caller excuses such a response
    only when it overlapped another request."""
    try:
        got = json.loads(body)
    except ValueError:
        return False
    want = json.loads(expected)
    got_cost, want_cost = got.pop("cost", None), want.pop("cost", None)
    if got != want or not isinstance(got_cost, dict):
        return False
    return got_cost.keys() == want_cost.keys() and all(
        isinstance(got_cost[k], int) and got_cost[k] >= want_cost[k]
        for k in want_cost
    )


def overlapped(i: int, sent, done) -> bool:
    """Whether request *i* was in flight at once with another."""
    return any(
        j != i and sent[j] < done[i] and done[j] > sent[i]
        for j in range(len(sent))
    )


def request_bytes(target: str) -> bytes:
    return (
        f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


class Server:
    """One ``repro serve`` child: spawned, ready, measured, stopped."""

    def __init__(self, data_dir: Path, spec: dict, log: Path, spans=None):
        args = ["serve", str(data_dir), "--port", "0", "--workers", "2"]
        if "cache_size" in spec:
            args += ["--cache-size", str(spec["cache_size"])]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
        self.log = open(log, "ab")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log,
        )
        try:
            self.port = self._wait_listening(start + READY_TIMEOUT_S)
            while http_get(self.port, request_bytes("/healthz"))[0] != 200:
                time.sleep(0.001)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - start

    def _wait_listening(self, deadline: float) -> int:
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buffered:
                if not selector.select(max(0.0, deadline - time.monotonic())):
                    raise BenchError("server did not start in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(
                        f"server exited early (code {self.proc.wait()})"
                    )
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if "listening on http://" not in line:
            raise BenchError(f"unexpected server banner {line!r}")
        return int(line.rsplit(":", 1)[1])

    def cpu_ms(self) -> float:
        return proc_threads_cpu_ms(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        try:
            http_get(self.port, request_bytes("/shutdown"))
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stdout.close()
            self.log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ------------------------------------------------------------ open loop


def drive(port: int, plan, requests, expected, closed_loop=False,
          marks=(), sample=None, connections=CONNECTIONS) -> dict:
    """Send ``plan`` = [(offset s, catalog index)] over at most
    *connections* connections. Open loop: each request is due at its
    offset; one due while both connections are busy waits in the
    generator, and latency counts from the due time. ``closed_loop``
    ignores the offsets (warm-up). ``sample()`` is called at each
    offset in *marks*; the results are returned under ``marks``."""

    n = len(plan)
    latency = [0.0] * n
    lag = [0.0] * n
    rtt = [0.0] * n
    connect = [0.0] * n
    size = [0] * n
    status = [0] * n
    ok = [False] * n
    excused = [False] * n
    differing = {}
    sent_at = [0.0] * n
    done_at = [0.0] * n
    sampled = []
    counter = itertools.count()
    t0 = time.monotonic() + 0.02

    def worker():
        while True:
            i = next(counter)
            if i >= n:
                return
            offset, index = plan[i]
            due = time.monotonic() if closed_loop else t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status[i], body, connect[i] = http_get(port, requests[index])
                done = time.monotonic()
                ok[i] = status[i] == 200 and body == expected[index]
                if status[i] == 200 and not ok[i]:
                    differing[i] = body  # compared after the run
                size[i] = len(body)
            except OSError:
                done = time.monotonic()
            latency[i] = (done - due) * 1e3
            lag[i] = (sent - due) * 1e3
            rtt[i] = (done - sent) * 1e3
            sent_at[i], done_at[i] = sent, done

    def sampler():
        for offset in marks:
            delay = t0 + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sampled.append(sample())

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    if marks:
        threads.append(threading.Thread(target=sampler))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, body in differing.items():
        ok[i] = excused[i] = cost_only(
            body, expected[plan[i][1]]
        ) and overlapped(i, sent_at, done_at)
    return {
        "t0": t0,
        "t1": max(done_at) if n else t0,
        "last_due": t0 + (plan[-1][0] if n else 0.0),
        "latency_ms": latency,
        "lag_ms": lag,
        "rtt_ms": rtt,
        "connect_ms": [c * 1e3 for c in connect],
        "bytes": size,
        "status": status,
        "ok": ok,
        "cost_only": excused,
        "marks": sampled,
    }


def replayed(block, replays: int, block_s: float):
    """The open-loop plan that sends *block* (one ``block_s`` schedule)
    *replays* times, one after the other."""
    return [
        (r * block_s + offset, index)
        for r in range(replays)
        for offset, index in block
    ]


def measure_window(server: Server, block, replays, block_s, slice_s,
                   requests, expected) -> dict:
    """Send *block* *replays* times. The program's CPU time is read at
    the edges of every slice (about *slice_s*) of every replay;
    ``best_cpu_ms`` sums each slice's least CPU time over the replays."""
    slices = max(1, round(block_s / slice_s))
    marks = [k * block_s / slices for k in range(1, replays * slices)]
    cpu0 = server.cpu_ms()
    run = drive(
        server.port, replayed(block, replays, block_s), requests, expected,
        marks=marks, sample=server.cpu_ms,
    )
    cpu = [cpu0, *run["marks"], server.cpu_ms()]
    used = [b - a for a, b in zip(cpu, cpu[1:])]
    run["cpu_ms"] = cpu[-1] - cpu0
    run["replay_cpu_ms"] = [
        sum(used[r * slices:(r + 1) * slices]) for r in range(replays)
    ]
    run["best_cpu_ms"] = sum(min(used[k::slices]) for k in range(slices))
    run["block"] = len(block)
    run["rss_mb"] = server.peak_rss_mb()
    return run


def best_latency(run: dict) -> list:
    """Each block position's best latency over the replays."""
    n = run["block"]
    lat, ok = run["latency_ms"], run["ok"]
    return [
        min(lat[j] for j in range(i, len(lat), n) if ok[j])
        for i in range(n)
        if any(ok[j] for j in range(i, len(lat), n))
    ]


def served_metrics(run: dict, setups) -> dict:
    """End-to-end metrics of a served run: latency percentiles of each
    block position's best latency, and the block's best CPU time (see
    :func:`measure_window`) per request of the block."""
    best = best_latency(run)
    n_ok = run["ok"].count(True)
    return {
        "setup_s": statistics.median(setups),
        "ask_p50_ms": percentile(best, 50) if best else float("nan"),
        "cpu_ms_per_op": run["best_cpu_ms"] / run["block"],
        "ops_per_s": n_ok / max(1e-9, run["t1"] - run["t0"]),
        "rss_mb": run["rss_mb"],
    }


def describe_served(run: dict, out) -> None:
    for line in (describe("ask", best_latency(run))
                 + describe("ask_every_request", [
                     lat for lat, ok in zip(run["latency_ms"], run["ok"]) if ok
                 ])
                 + describe("harness.gen_lag", run["lag_ms"])):
        print(line, file=out)
    print(f"{'replay cpu_ms':<28} "
          f"{[round(c, 1) for c in run['replay_cpu_ms']]}, best "
          f"{run['best_cpu_ms']:.1f}", file=out)
    n, cost_only = len(run["ok"]), run["cost_only"].count(True)
    wrong = run["ok"].count(False)
    failed = sum(1 for code in run["status"] if code != 200)
    print(f"{'answer check':<28} {n - cost_only - wrong}/{n} byte-identical "
          f"to the reference, {cost_only} differ only in a larger 'cost' "
          f"while overlapping another request (one meter shared by "
          f"concurrent asks), {wrong - failed} wrong, {failed} failed "
          f"(not 200)", file=out)


def capacity(server, name, vocab, seed, requests, expected, out):
    """The highest rung of the fixed ladder (above the workload's own
    rate) that meets the tail limit with no error and no backlog: the
    last request finishes within the limit of its due time. The tail is
    p90 where ten samples lie beyond it, else the maximum. Returns
    ``(rate, requests sent, requests failed)``."""

    spec = SPECS[name]
    limit = spec["ladder_limit_ms"]
    best, sent, failed = spec["rate_rps"], 0, 0
    for rate in spec["ladder_rps"]:
        plan = served_plan(name, vocab, seed, spec["ladder_rung_s"], rate)
        run = drive(server.port, plan, requests, expected)
        lat = run["latency_ms"]
        errors = run["ok"].count(False)
        sent, failed = sent + len(lat), failed + errors
        tail = percentile(lat, 90) if supported(len(lat), 90) else max(lat)
        drain_ms = (run["t1"] - run["last_due"]) * 1e3
        passed = not errors and tail <= limit and drain_ms <= limit
        print(
            f"ladder {rate:6.1f} rps: n={len(lat)} tail={tail:.1f} ms "
            f"drain={drain_ms:.1f} ms errors={errors} "
            f"-> {'pass' if passed else 'fail'}",
            file=out,
        )
        if not passed:
            break
        best = rate
    return best, sent, failed


# --------------------------------------------------------------- served


def run_served(name, seed, seconds, trace, work, out) -> dict:
    spec = SPECS[name]
    data = work / "data"
    generate(data, spec["movies"], seed)
    vocab = vocabulary(data)
    entries = catalog(name, vocab, seed)
    requests = [request_bytes(ask_target(q, k)) for q, k in entries]
    replays = spec["replays"]
    block_s = seconds / replays
    block = served_plan(name, vocab, seed, block_s)
    if name == "serve-hot":
        warmup = [(0.0, i) for i in range(len(entries))]
    else:
        warmup = [(0.0, i) for _, i in block[:10]]
    needed = {i for _, i in block + warmup}
    ladder = trace and "ladder_rps" in spec
    if ladder:
        for rate in spec["ladder_rps"]:
            needed.update(
                i for _, i in served_plan(
                    name, vocab, seed, spec["ladder_rung_s"], rate
                )
            )
    from repro.cli import _load_engine

    reference = _load_engine(str(data))
    expected = {i: answer_bytes(reference, *entries[i]) for i in sorted(needed)}
    del reference

    def serve_once(spans=None, setups=1, ladder=False):
        servers_setup = []
        for attempt in range(setups):
            server = Server(data, spec, work / "server.log", spans)
            servers_setup.append(server.setup_s)
            if attempt < setups - 1:
                server.stop()
        try:
            # one connection: answers cached by the warm-up then carry
            # their own cost (see cost_only)
            warm = drive(server.port, warmup, requests, expected, True,
                         connections=1)
            run = measure_window(
                server, block, replays, block_s, spec["slice_s"], requests,
                expected,
            )
            run["warm_ok"] = all(warm["ok"])
            run["setups"] = servers_setup
            if ladder:
                run["capacity"] = capacity(
                    server, name, vocab, seed, requests, expected, out
                )
        finally:
            server.stop()
        return run

    untraced = serve_once(setups=SETUPS if not trace else 1, ladder=ladder)
    result = {
        "e2e": served_metrics(untraced, untraced["setups"]),
        "attempted": len(untraced["ok"]),
        "failed": untraced["ok"].count(False),
        "correct": untraced["warm_ok"] and all(untraced["ok"]),
        "n": untraced["block"],
        "ops": untraced["block"],
        "setups": untraced["setups"],
    }
    describe_served(untraced, out)
    if "capacity" in untraced:
        rate, sent, failed = untraced["capacity"]
        result["attempted"] += sent
        result["failed"] += failed
        result["correct"] = result["correct"] and not failed
        print(f"{'capacity_rps':<28} {rate:10.1f} 1/s  (ladder "
              f"{spec['ladder_rps']}, n={sent}, tail limit "
              f"{spec['ladder_limit_ms']:g} ms)", file=out)
    if trace:
        spans_file = work / "spans.json"
        traced = serve_once(spans=spans_file)
        result["traced"] = traced
        result["traced_e2e"] = served_metrics(traced, traced["setups"])
        result["spans"] = json.loads(spans_file.read_text())
        result["correct"] = result["correct"] and traced["warm_ok"] and all(
            traced["ok"]
        )
    return result


# -------------------------------------------------------------- library


def library_child(data: Path, seed: int, seconds: float, spans=None):
    """Run the library program once; returns (setup s, result or None)."""
    cmd = [sys.executable, str(HERE / "library_rw.py"), str(data),
           str(seed), str(seconds)]
    if spans is not None:
        cmd.append(str(spans))
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup = time.monotonic() - start
        if line.strip() != "ready":
            raise BenchError(f"library program failed to start: {line!r}")
        rest = proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"library program exited with code {code}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if seconds else None)


def library_metrics(res: dict, setups) -> dict:
    """End-to-end metrics of a library run, from each block position's
    best time over the replays."""
    return {
        "setup_s": statistics.median(setups),
        "ask_p50_ms": percentile(res["ask_ms"], 50),
        "cpu_ms_per_op": res["best_cpu_ms_per_op"],
        "ops_per_s": 1e3 / res["best_wall_ms_per_op"],
        "rss_mb": res["rss_mb"],
    }


def run_library(seed, seconds, trace, work, out) -> dict:
    data = work / "data"
    generate(data, SPECS["library-rw"]["movies"], seed)
    setups = [
        library_child(data, seed, 0)[0]
        for _ in range(SETUPS - 1 if not trace else 0)
    ]
    setup, res = library_child(data, seed, seconds)
    setups.append(setup)
    # asks per call; writes per SynchronizedWriter call
    for line in describe("ask", res["ask_ms"]) + describe("write", res["write_ms"]):
        print(line, file=out)
    print(f"{'replays':<28} {res['replays']:.2f} of {res['block_ops']} ops "
          f"({res['ops']} ops, {res['cpu_ms'] / res['ops']:.4f} ms CPU/op "
          f"over the whole window)", file=out)
    print(f"{'answer check':<28} {res['checked'] - res['mismatches']}/"
          f"{res['checked']} sampled cached answers equal a fresh engine's "
          f"({res['check_cache_hits']} served from cache)", file=out)
    result = {
        "e2e": library_metrics(res, setups),
        "attempted": res["ops"],
        "failed": res["mismatches"],
        "correct": res["mismatches"] == 0,
        "n": len(res["ask_ms"]),
        "ops": min(res["ops"], res["block_ops"]),
        "setups": setups,
    }
    if trace:
        spans_file = work / "spans.json"
        traced_setup, traced = library_child(data, seed, seconds, spans_file)
        result["traced"] = traced
        result["traced_e2e"] = library_metrics(traced, [traced_setup])
        result["spans"] = json.loads(spans_file.read_text())
        result["correct"] = result["correct"] and traced["mismatches"] == 0
    return result


# ------------------------------------------------------------ reporting


def declared(kind: str) -> dict:
    """``BENCHMARK.json``'s metrics of one kind (``end_to_end`` or
    ``per_layer``): name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def pick(values: dict, kind: str, out, counts=None) -> dict:
    """The declared metrics, printed by name with unit and, given
    *counts*, sample count; a declared metric the run did not compute
    is an error."""
    units = declared(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"declared {kind} metrics not computed: {missing}")
    for key, unit in units.items():
        n = f"  (n={counts.get(key, counts['ask'])})" if counts else ""
        print(f"{key:<36} {values[key]:12.4f} {unit}{n}", file=out)
    return {key: {"value": values[key], "unit": unit}
            for key, unit in units.items()}


def layer_report(name: str, result: dict, out) -> dict:
    """Per-layer metrics of the traced run, the tracing overhead and the
    liveness and design checks."""
    spans = result["spans"]
    calls = dict.fromkeys(EXPECTED, 0)
    for span in spans:
        if span[NAME] in calls:
            calls[span[NAME]] += 1
    for entry in sorted(calls):
        print(f"calls {entry:<30} {calls[entry]:>10}", file=out)
    dead = [entry for entry, loads in EXPECTED.items()
            if name in loads and calls[entry] == 0]
    if dead:
        raise BenchError(
            f"wrapped entry points recorded no call on {name}: {dead}"
        )

    traced = result["traced"]
    served = "rtt_ms" in traced
    window = (
        (int(traced["t0"] * 1e9), int(traced["t1"] * 1e9))
        if served
        else (traced["t0_ns"], traced["t1_ns"])
    )
    metrics, maintenance_calls = per_layer(
        spans, *window, traced["cpu_ms"], traced if served else None
    )
    untraced, traced_e2e = result["e2e"], result["traced_e2e"]
    for key, unit in declared("end_to_end").items():
        print(f"trace overhead {key:<20} "
              f"{traced_e2e[key] - untraced[key]:+10.3f} {unit} (traced "
              f"{traced_e2e[key]:.3f}, untraced {untraced[key]:.3f})",
              file=out)
    metrics["trace.overhead_ask_p50_ms"] = (
        traced_e2e["ask_p50_ms"] - untraced["ask_p50_ms"]
    )
    metrics["trace.overhead_cpu_ms_per_op"] = (
        traced_e2e["cpu_ms_per_op"] - untraced["cpu_ms_per_op"]
    )

    # each workload's design, as observed on this host
    if name == "serve-hot":
        checks = [
            ("answer hit rate > 0.9", metrics["cache.answer_hit_rate"] > 0.9),
            ("tuples stage a minority of busy time",
             metrics["server.tuples_share"] < 0.5),
        ]
    elif name == "serve-cold":
        checks = [("tuples stage + translation the majority of busy time",
                   metrics["server.tuples_share"] > 0.5)]
    else:
        planned = traced["write_calls"]
        checks = [
            ("cache invalidations > 0", metrics["cache.invalidations"] > 0),
            (f"maintenance calls {maintenance_calls} == scheduled {planned}",
             maintenance_calls == planned),
        ]
    for label, passed in checks:
        print(f"design: {label}: {'yes' if passed else 'NO'}", file=out)
    failed = [label for label, passed in checks if not passed]
    if failed:
        raise BenchError(f"{name} does not do what it is designed for: {failed}")
    return pick(metrics, "per_layer", out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = sys.stdout
    print("stamp " + json.dumps(
        stamp(ROOT, args.seed, args.workload, SPECS[args.workload],
              args.seconds),
        sort_keys=True,
    ), file=out)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if SPECS[args.workload]["kind"] == "served":
            result = run_served(
                args.workload, args.seed, args.seconds, args.trace, work, out
            )
        else:
            result = run_library(args.seed, args.seconds, args.trace, work, out)
        if args.trace:
            metrics = layer_report(args.workload, result, out)
        else:
            counts = {
                "ask": result["n"],
                "setup_s": len(result["setups"]),
                "cpu_ms_per_op": result["ops"],
                "ops_per_s": result["ops"],
                "rss_mb": 1,
            }
            metrics = pick(result["e2e"], "end_to_end", out, counts)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    error_frac = result["failed"] / max(1, result["attempted"])
    print(f"{'error_frac':<36} {error_frac:12.4f}  "
          f"(n={result['attempted']})", file=out)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
