#!/usr/bin/env python3
"""End-to-end benchmark of the GFD server and miner.

Run from the repository root:

    python3 e2ebench/run.py --workload ingest_small --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1      # every workload, one table

The first run builds `gfdtool` and the helper `e2e_tool` from source. A run
generates the workload's graph, mines the served rules with ParDis at n=4
and n=1, and then runs rounds of a ParDis pair and closed-loop load: each
round starts `gfdtool serve run` in its own process on a fresh copy of the
prepared store and drives it from this process with the same batches.
--seed seeds the batch stream; seed 9001 is held out for confirming
claimed gains. Every output is checked, and the last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1 (which also replays the batches in-process with
spans, written under .bench_build/e2ebench/traces/). RATIONALE.md says
what each workload and metric is for.
"""

import argparse
import bisect
import collections
import gc
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
CMAKE_DIR = BUILD / "cmake"
GFDTOOL = CMAKE_DIR / "gfd" / "tools" / "gfdtool"
E2E_TOOL = CMAKE_DIR / "e2e_tool"

# Workloads. `scale`/`graph_seed` fix the generated Yago2-like knowledge
# base (the dataset is part of the workload; --seed varies only the batch
# stream, so runs with different seeds measure the same jobs).
# `fragments` > 1 serves it through a Coordinator, `batch_ops` sizes each
# POST /ingest, `filters` lists one entry per SSE subscriber (None =
# unfiltered, "top" = ?label= on the pivot label most rules share).
# `batches_per_s` is a fixed nominal rate, never a measured one: a round
# serves seconds / ROUNDS * batches_per_s batches, so --seconds sizes the
# work and a faster build serves the same batches in less time. A round
# that is still running after ROUND_CAP times its nominal seconds stops
# early, which bounds a run's length on a slow host.
WORKLOADS = {
    "ingest_small": dict(scale=500, graph_seed=7, fragments=1,
                         batch_ops=8, filters=[None], batches_per_s=33),
    "ingest_fanout": dict(scale=800, graph_seed=8, fragments=4,
                          batch_ops=32, filters=[None, "top"],
                          batches_per_s=25),
}
# The /status + /metrics poller's think time. It puts each read at a random
# point of the writer's batch; a back-to-back poller would issue every read
# just as a batch ends, racing the writer's next POST for the store mutex.
POLL_INTERVAL_S = 0.02
ROUNDS = 5
ROUND_CAP = 1.5
SETUP_LAUNCHES_PER_ROUND = 4  # timed server starts besides the served one
REPLAY_CAP = 400
HTTP_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 15.0

END_TO_END = [
    ("ingest_p50_ms", "ms"), ("ingest_p95_ms", "ms"),
    ("ingest_batches_per_s", "1/s"), ("deliver_p50_ms", "ms"),
    ("deliver_p95_ms", "ms"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("discover_w4_s", "s"), ("discover_w1_s", "s"),
]

PER_LAYER_UNITS = {
    "net.ingest_overhead_ms": "ms", "net.metrics_render_ms": "ms",
    "net.frames_per_batch": "count", "net.read_p95_ms": "ms",
    "net.read_two_batch_share": "share",
    "serve.append_and_diff_ms": "ms", "serve.set_count_ms": "ms",
    "serve.materialize_ms": "ms", "serve.render_ms": "ms",
    "serve.publish_ms": "ms", "serve.compact_ms": "ms",
    "serve.compactions": "count", "serve.fsyncs_per_batch": "count",
    "serve.overlay_ops_mean": "count",
    "serve.bytes_shipped_per_batch": "bytes",
    "serve.ops_maintenance_per_batch": "count",
    "detect.full_path_share": "share",
    "detect.anchors_scanned_per_batch": "count",
    "detect.matches_enumerated_per_batch": "count",
    "detect.literal_evals_per_batch": "count",
    "detect.groups_skipped_share": "share", "detect.full_ms": "ms",
    "detect.incremental_ms": "ms", "match.matches_per_anchor": "ratio",
    "graph.materialized_edges_per_batch": "count",
    "core.patterns_spawned": "count", "core.candidates_validated": "count",
    "core.pruned_share": "share", "core.profile_matches": "count",
    "parallel.match_s": "s", "parallel.validate_s": "s",
    "parallel.bytes_shipped": "bytes", "parallel.messages": "count",
    "parallel.max_skew": "ratio", "parallel.matches_rebalanced": "count",
    "parallel.speedup_w1_w4": "ratio", "trace_overhead_share": "share",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """An output check failed; the run reports correct=false."""


# ---------------------------------------------------------------- build

def build():
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                    "--target", "gfdtool", "e2e_tool"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def tool_json(args):
    out = subprocess.run([str(E2E_TOOL), *args], check=True,
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- stats

def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s) / 100) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- inputs

FIELD_EQ = re.compile(r"(?<!\\)=")


class BatchStream:
    """Seeded E+/E-/A batches that keep the served graph stationary.

    Every op either perturbs the graph or reverts the oldest outstanding
    perturbation, so at most POOL changes are outstanding and the graph
    stays the same size and shape however long a run lasts; a drifting
    graph would make per-batch cost depend on how many batches a run got
    through. Perturbations are 35% inserts of edges shaped like a random
    existing edge, 35% deletes of a base edge, and 30% attribute sets (a
    third of them to a value the graph has never seen, the rest to a value
    drawn from the key's observed values); their reverts are the matching
    delete, re-insert and restore. Ops therefore split 35/35/30 between
    inserts, deletes and attribute sets."""

    POOL = 256

    def __init__(self, graph_tsv, rng, batch_ops):
        self.rng = rng
        self.batch_ops = batch_ops
        self.node_label, self.attrs, self.values = {}, {}, {}
        self.base_edges = []
        with open(graph_tsv) as f:
            for line in f:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "N":
                    self.node_label[fields[1]] = fields[2]
                    kv = dict(FIELD_EQ.split(a, 1) for a in fields[3:])
                    self.attrs[fields[1]] = kv
                    for k, v in kv.items():
                        self.values.setdefault(k, []).append(v)
                elif fields[0] == "E":
                    self.base_edges.append((fields[1], fields[2], fields[3]))
        self.by_label = {}
        for node, label in sorted(self.node_label.items()):
            self.by_label.setdefault(label, []).append(node)
        self.attr_slots = sorted((n, k) for n, kv in self.attrs.items()
                                 for k in kv)
        self.pool = collections.deque()  # outstanding, oldest first
        self.deleted = set()    # base edge indexes currently deleted
        self.touched = set()    # (node, key) currently perturbed
        self.fresh = 0

    def _perturb(self):
        rng = self.rng
        r = rng.random()
        if r < 0.35:
            s, d, label = rng.choice(self.base_edges)
            s = rng.choice(self.by_label[self.node_label[s]])
            d = rng.choice(self.by_label[self.node_label[d]])
            self.pool.append(("ins", (s, d, label)))
            return f"E+\t{s}\t{d}\t{label}"
        if r < 0.7:
            i = rng.randrange(len(self.base_edges))
            while i in self.deleted:
                i = rng.randrange(len(self.base_edges))
            self.deleted.add(i)
            self.pool.append(("del", i))
            s, d, label = self.base_edges[i]
            return f"E-\t{s}\t{d}\t{label}"
        slot = rng.choice(self.attr_slots)
        while slot in self.touched:
            slot = rng.choice(self.attr_slots)
        self.touched.add(slot)
        self.pool.append(("attr", slot))
        node, key = slot
        if rng.random() < 1 / 3:
            self.fresh += 1
            value = f"fresh{self.fresh}"
        else:
            value = rng.choice(self.values[key])
        return f"A\t{node}\t{key}={value}"

    def _revert(self):
        kind, what = self.pool.popleft()
        if kind == "ins":
            s, d, label = what
            return f"E-\t{s}\t{d}\t{label}"
        if kind == "del":
            self.deleted.discard(what)
            s, d, label = self.base_edges[what]
            return f"E+\t{s}\t{d}\t{label}"
        self.touched.discard(what)
        node, key = what
        return f"A\t{node}\t{key}={self.attrs[node][key]}"

    def next_batch(self):
        ops = [self._revert() if len(self.pool) >= self.POOL
               else self._perturb() for _ in range(self.batch_ops)]
        return "\n".join(ops) + "\n"


# ---------------------------------------------------------------- http

class HttpConn:
    """Minimal keep-alive HTTP/1.1 client on one socket."""

    def __init__(self, port, timeout=HTTP_TIMEOUT_S):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def _read_until(self, marker):
        while marker not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        head, self.buf = self.buf.split(marker, 1)
        return head

    def request(self, method, path, body=b""):
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        head = self._read_until(b"\r\n\r\n").decode()
        lines = head.split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self.buf) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("short body")
            self.buf += chunk
        data, self.buf = self.buf[:length], self.buf[length:]
        return status, data

    def close(self):
        self.sock.close()


def get_json(port, path):
    conn = HttpConn(port)
    try:
        status, body = conn.request("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise Failure(f"GET {path} -> {status}")
    return json.loads(body)


class Subscriber(threading.Thread):
    """One SSE client on /feed; records (seq, receive time, frame text).
    Frames are parsed after the round: a JSON parse here would hold the
    GIL while the writer thread waits to read its reply."""

    def __init__(self, port, label):
        super().__init__(daemon=True)
        self.label = label
        path = "/feed?cursor=0" + (f"&label={label}" if label else "")
        self.conn = HttpConn(port)
        self.conn.sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        head = self.conn._read_until(b"\r\n\r\n").decode()
        status_line = head.split("\r\n")[0]
        if status_line.split()[1] != "200":
            raise Failure(f"GET {path}: {status_line}")
        self.conn.sock.settimeout(0.5)
        self.frames = []  # (seq, t_recv, data)
        self.errors = []
        self.stop = threading.Event()

    def run(self):
        buf = self.conn.buf
        while not self.stop.is_set():
            try:
                chunk = self.conn.sock.recv(65536)
            except socket.timeout:
                continue
            except OSError as e:
                if not self.stop.is_set():
                    self.errors.append(f"feed read: {e}")
                return
            if not chunk:
                if not self.stop.is_set():
                    self.errors.append("feed closed by server")
                return
            now = time.perf_counter()
            buf += chunk
            while b"\n\n" in buf:
                event, buf = buf.split(b"\n\n", 1)
                fields = {}
                for line in event.decode().split("\n"):
                    if line.startswith(":"):
                        continue
                    name, _, value = line.partition(": ")
                    fields[name] = value
                if fields.get("event") == "diff":
                    self.frames.append((int(fields["id"]), now,
                                        fields["data"]))
                elif "event" in fields:
                    self.errors.append(f"feed event {fields['event']}")

    def close(self):
        self.stop.set()
        try:
            self.conn.sock.shutdown(socket.SHUT_RDWR)  # wakes the reader
        except OSError:
            pass
        self.join(timeout=5)
        self.conn.close()


class Poller(threading.Thread):
    """Alternates GET /status and GET /metrics until stopped; closed loop,
    with POLL_INTERVAL_S of think time before each request. Records (send
    time, latency) pairs."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.port = port
        self.samples, self.errors = [], []
        self.stop = threading.Event()

    def run(self):
        conn = HttpConn(self.port)
        paths = ["/status", "/metrics"]
        i = 0
        try:
            while not self.stop.wait(POLL_INTERVAL_S):
                t0 = time.perf_counter()
                try:
                    status, _ = conn.request("GET", paths[i % 2])
                except OSError as e:
                    self.errors.append(f"poll: {e}")
                    return
                self.samples.append((t0, time.perf_counter() - t0))
                if status != 200:
                    self.errors.append(f"GET {paths[i % 2]} -> {status}")
                i += 1
        finally:
            conn.close()


# ---------------------------------------------------------------- server

class Server:
    """One `gfdtool serve run` process on a copy of the prepared store."""

    def __init__(self, store, rules, log_path):
        self.log_path = log_path
        t0 = time.perf_counter()
        with open(log_path, "w") as err:
            self.proc = subprocess.Popen(
                [str(GFDTOOL), "serve", "run", str(store), str(rules),
                 "--port", "0"], stdout=subprocess.DEVNULL, stderr=err)
        try:
            self.port = self._await_port()
            while True:  # the first 200 on /status ends set-up
                try:
                    get_json(self.port, "/status")
                    break
                except (OSError, Failure):
                    if time.perf_counter() - t0 > START_TIMEOUT_S:
                        raise Failure("server never answered /status")
                    time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self):
        pattern = re.compile(r"on http://127\.0\.0\.1:(\d+)")
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            m = pattern.search(Path(self.log_path).read_text())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                raise Failure("server exited during start: " +
                              Path(self.log_path).read_text()[-2000:])
            time.sleep(0.001)
        raise Failure("server did not start")

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ---------------------------------------------------------------- phases

def mine(work, round_no, rules=None):
    """One ParDis pair (n=4, then n=1) on the clean graph, in a fresh
    process; the first round also writes the served rule set."""
    args = ["mine", "--graph", str(work / "clean.tsv")]
    if rules:
        args += ["--out", str(rules)]
    if TRACE_DIR:
        args += ["--spans", str(TRACE_DIR / f"mine-{round_no}.jsonl")]
    try:
        return tool_json(args)
    except subprocess.CalledProcessError as e:
        if e.returncode == 3:
            raise Failure("ParDis n=1 and n=4 outputs differ")
        raise


def prepare(workload, work):
    """Inputs: the workload's graphs, rules mined by ParDis (round 1's
    pair), and a prepared store. Returns the mining report."""
    cfg = WORKLOADS[workload]
    tool_json(["gen", "--scale", str(cfg["scale"]),
               "--seed", str(cfg["graph_seed"]),
               "--clean", str(work / "clean.tsv"),
               "--noisy", str(work / "noisy.tsv")])
    first = mine(work, 0, work / "rules.gfd")
    # Its ClusterStats and DiscoveryStats are the per-layer figures.
    report = dict(first, w4_ms=[first["w4_ms"]], w1_ms=[first["w1_ms"]],
                  round1=first, setup_samples=[], exits=[],
                  server_logs=[])
    report["filter_label"] = top_pivot_label(work / "rules.gfd")
    pristine = work / "pristine"
    if cfg["fragments"] > 1:
        args = ["serve", "init", str(pristine), str(work / "noisy.tsv"),
                "--fragments", str(cfg["fragments"]),
                "--radius", str(max(1, report["max_radius"]))]
    else:
        args = ["log", "init", str(pristine), str(work / "noisy.tsv")]
    subprocess.run([str(GFDTOOL), *args], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return report


def top_pivot_label(rules_path):
    """The pivot label most served rules share (ties: alphabetical), the
    ?label= of the filtered subscriber."""
    counts = {}
    with open(rules_path) as f:
        for line in f:
            fields = dict(p.split("=", 1) for p in line.strip().split(";")[:3])
            label = fields["nodes"].split("|")[int(fields["pivot"])]
            counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda l: (-counts[l], l))


def fresh_copy(work, name):
    dst = work / name
    shutil.copytree(work / "pristine", dst)
    return dst


def launch(work, report, name):
    """One timed server start on a fresh copy of the prepared store, so it
    pays open, replay, feed open and the seeding scan. Its set-up time is
    a setup_s sample."""
    log_path = work / f"{name}.log"
    server = Server(fresh_copy(work, name), work / "rules.gfd", log_path)
    report["setup_samples"].append(server.setup_s)
    report["server_logs"].append(log_path)
    return server


def sample_setup(work, report, round_no):
    """SETUP_LAUNCHES_PER_ROUND more launches, each stopped once it has
    answered, so the setup_s samples spread over the whole run."""
    for i in range(SETUP_LAUNCHES_PER_ROUND):
        name = f"setup{round_no}-{i}"
        report["exits"].append(launch(work, report, name).stop())
        shutil.rmtree(work / name)


def batch_bodies(workload, seed, seconds, work):
    """The round's batches: the seeded stream's first seconds / ROUNDS *
    batches_per_s batches, encoded before any timing starts."""
    cfg = WORKLOADS[workload]
    stream = BatchStream(work / "noisy.tsv",
                         random.Random(f"{workload}/{seed}"),
                         cfg["batch_ops"])
    n = max(1, round(seconds / ROUNDS * cfg["batches_per_s"]))
    return [stream.next_batch().encode() for _ in range(n)]


def serve_round(workload, work, report, bodies, round_no, cap_s):
    """One round's load: a fresh server on a fresh copy of the prepared
    store (a timed launch), its subscribers and poller, and one
    closed-loop writer that POSTs the batches in `bodies` in order, all of
    them unless cap_s runs out first. Every round therefore serves the
    same batches from the same state. Returns the round's raw
    observations."""
    cfg = WORKLOADS[workload]
    name = f"served{round_no}"
    server = launch(work, report, name)
    subs, writer, poller = [], None, None
    sent, replies, lat, errors = [], [], [], []
    rd = dict(sent=sent, replies=replies, lat=lat, errors=errors, subs=subs)
    try:
        writer = HttpConn(server.port)
        for f in cfg["filters"]:
            subs.append(Subscriber(server.port,
                                   report["filter_label"] if f else None))
            subs[-1].start()
        poller = Poller(server.port)
        rd["poller"] = poller
        poller.start()
        # No collector pause inside a timed request; the round's garbage
        # is collected after it.
        gc.collect()
        gc.disable()
        rd["t0"] = time.perf_counter()
        for body in bodies:
            t0 = time.perf_counter()
            if t0 - rd["t0"] > cap_s:
                break
            try:
                status, data = writer.request("POST", "/ingest", body)
            except OSError as e:
                errors.append(f"ingest: {e}")
                replies.append(None)
                break
            lat.append(time.perf_counter() - t0)
            sent.append(t0)
            if status != 200:
                errors.append(f"ingest {len(sent)} -> {status}: "
                              f"{data[:200]!r}")
                replies.append(None)
                break
            replies.append(json.loads(data))
        poller.stop.set()
        rd["peak_rss_mb"] = server.peak_rss_mb()

        # Every unfiltered subscriber must see the last batch, and a
        # filtered one the last batch with a line for its label.
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for s in sorted(subs, key=lambda s: s.label is not None):
            last = len(sent) if s.label is None else last_with_label(
                next(x for x in subs if x.label is None), s.label)
            while (time.perf_counter() < deadline and last and
                   not (s.frames and s.frames[-1][0] >= last)):
                time.sleep(0.01)
        rd["final_status"] = get_json(server.port, "/status")
    finally:
        gc.enable()
        if writer:
            writer.close()
        for s in subs:
            s.close()
        if poller:
            poller.stop.set()
            if poller.is_alive():
                poller.join(timeout=HTTP_TIMEOUT_S)
        report["exits"].append(server.stop())
        shutil.rmtree(work / name, ignore_errors=True)
    return rd


def last_with_label(sub, label):
    """The last seq whose frame on `sub` has a line for `label`, or 0."""
    for seq, _, data in reversed(sub.frames):
        frame = json.loads(data)
        if any(x["label"] == label
               for k in ("added", "removed") for x in frame[k]):
            return seq
    return 0


def serve_rounds(workload, seed, seconds, work, report):
    """ROUNDS rounds, each a ParDis pair (round 1's ran in prepare), the
    round's set-up samples and then the round's load. Returns the rounds'
    observations and the batches they served."""
    bodies = batch_bodies(workload, seed, seconds, work)
    cap_s = ROUND_CAP * seconds / ROUNDS
    rounds = []
    for r in range(ROUNDS):
        if r:
            pair = mine(work, r)
            report["w4_ms"].append(pair["w4_ms"])
            report["w1_ms"].append(pair["w1_ms"])
        sample_setup(work, report, r)
        rounds.append(serve_round(workload, work, report, bodies, r,
                                  cap_s))
        if rounds[-1]["errors"]:
            break
    return rounds, bodies


# ---------------------------------------------------------------- checks

def write_deltas(path, bodies):
    with open(path, "w") as f:
        for i, body in enumerate(bodies, 1):
            f.write(f"# batch {i}\n{body.decode()}")


def check_round(rd, want, first_replies, label):
    """The output checks of one round, which had to end with `want`
    violations. Returns (attempted, failed, problems); each failed
    operation or check counts once."""
    replies, subs, poller = rd["replies"], rd["subs"], rd["poller"]
    n = len(replies)
    problems = [f"{label}: {e}" for e in rd["errors"] + poller.errors]
    # Batches, reads, and the final count at the end; each subscriber
    # adds one expected frame per batch below.
    attempted = n + len(poller.samples) + len(poller.errors) + 1
    failed = len(rd["errors"]) + len(poller.errors)

    # Exactly one 200 per batch, seqs contiguous from 1, and the same
    # verdicts as the first round, which served the same batches.
    for i, reply in enumerate(replies, 1):
        if reply is None:
            continue
        if reply.get("seq") != i:
            failed += 1
            problems.append(f"{label}: batch {i} acknowledged as seq "
                            f"{reply.get('seq')}")
        elif i <= len(first_replies) and \
                first_replies[i - 1] not in (None, reply):
            failed += 1
            problems.append(f"{label}: batch {i} answered {reply}, the "
                            f"first round {first_replies[i - 1]}")

    # Each subscriber: every seq once, in order, its lines matching the
    # /ingest reply (the filtered one: exactly the matching lines).
    full = next(s for s in subs if s.label is None)
    by_seq = {seq: json.loads(data) for seq, _, data in full.frames}
    for s in subs:
        attempted += n
        failed += len(s.errors)
        problems += [f"{label}: {e}" for e in s.errors]
        seqs = [seq for seq, _, _ in s.frames]
        if len(set(seqs)) != len(seqs) or seqs != sorted(seqs):
            failed += 1
            problems.append(f"{label}: subscriber {s.label}: duplicate or "
                            f"reordered frames")
        got = {seq: json.loads(data) for seq, _, data in s.frames}
        for i in range(1, n + 1):
            reply = replies[i - 1] or {}
            data = got.get(i)
            if s.label is None:
                ok = (data is not None and
                      len(data["added"]) == reply.get("added") and
                      len(data["removed"]) == reply.get("removed"))
            else:
                ref = by_seq.get(i, {"added": [], "removed": []})
                expect = {k: [x for x in ref[k] if x["label"] == s.label]
                          for k in ("added", "removed")}
                if expect["added"] or expect["removed"]:
                    ok = data is not None and all(
                        data[k] == expect[k] for k in ("added", "removed"))
                else:
                    ok = data is None
            if not ok:
                failed += 1
                problems.append(f"{label}: subscriber {s.label}: frame {i} "
                                f"missing or wrong")
        failed += sum(1 for seq in got if not 1 <= seq <= n)

    # Final count equals a fresh Detect over base + every batch.
    final = rd.get("final_status", {})
    if final.get("violations") != want or final.get("seq") != n:
        failed += 1
        problems.append(f"{label}: final /status {final} vs oracle {want} "
                        f"at seq {n}")
    return attempted, failed, problems


def check(rounds, bodies, report, work):
    """Every output check of the served run. Returns (attempted, failed,
    problems); each failed operation or check counts once."""
    want = {}  # batches served -> the oracle's count after them
    attempted = failed = 0
    problems = []
    for r, rd in enumerate(rounds):
        n = len(rd["replies"])
        if n not in want:
            write_deltas(work / "served.tsv", bodies[:n])
            want[n] = oracle(work, work / "served.tsv")
        a, f, p = check_round(rd, want[n], rounds[0]["replies"],
                              f"round {r + 1}")
        attempted, failed, problems = attempted + a, failed + f, problems + p

    # SIGTERM is an orderly shutdown: exit code 0, for every served server
    # and every set-up launch.
    for code in report["exits"]:
        attempted += 1
        if code != 0:
            failed += 1
            problems.append(f"server exited with {code}")

    # The server still answers 200 when persisting the counter, publishing
    # to the feed or compacting fails; it says so only on stderr. Each
    # such line is a failed operation.
    for path in report["server_logs"]:
        for line in path.read_text().splitlines():
            if line.startswith(("warning:", "error")) or "failed" in line:
                failed += 1
                problems.append(f"{path.name}: {line}")
    return attempted, failed, problems


# ---------------------------------------------------------------- metrics

def deliver_ms(rd):
    """{seq: ms from POST send for seq to the unfiltered subscriber
    receiving id seq}."""
    return {seq: (t - rd["sent"][seq - 1]) * 1e3
            for s in rd["subs"] if s.label is None
            for seq, t, _ in s.frames if seq <= len(rd["sent"])}


def served_values(ingest, deliver):
    """The served-batch metrics of per-batch latencies in ms."""
    return {
        "ingest_p50_ms": median(ingest),
        "ingest_p95_ms": percentile(ingest, 95),
        "ingest_batches_per_s": 1e3 * len(ingest) / max(1e-9, sum(ingest)),
        "deliver_p50_ms": median(deliver),
        "deliver_p95_ms": percentile(deliver, 95),
    }


def end_to_end(rounds, report):
    """Every round serves the same batches from the same state, so batch i
    is the same job in every round, as every ParDis run repeats the same
    job. Each batch's latency is therefore its best of the rounds, and the
    served-batch metrics are taken over those; the ParDis times are the
    best of their runs, setup_s and peak_rss_mb medians (see RATIONALE.md,
    "Noise"). Also returns each round's own values, for the summary."""
    ingest = [[x * 1e3 for x in rd["lat"]] for rd in rounds]
    deliver = [deliver_ms(rd) for rd in rounds]
    per_round = [served_values(i, list(d.values()))
                 for i, d in zip(ingest, deliver)]
    seqs = set.intersection(*(set(d) for d in deliver))
    values = served_values([min(x) for x in zip(*ingest)],
                           [min(d[seq] for d in deliver) for seq in seqs])
    values["setup_s"] = median(report["setup_samples"])
    values["peak_rss_mb"] = median([rd["peak_rss_mb"] for rd in rounds])
    values["discover_w4_s"] = min(report["w4_ms"]) / 1e3
    values["discover_w1_s"] = min(report["w1_ms"]) / 1e3
    return values, per_round


def replay(work, deltas, spans):
    """Replays the batches in `deltas` in-process, tracing about half of
    them (see e2e_tool.cc)."""
    return tool_json(["replay", "--store", str(fresh_copy(work, "replay")),
                      "--rules", str(work / "rules.gfd"),
                      "--deltas", str(deltas), "--spans", str(spans)])


def oracle(work, deltas):
    """Violations a fresh Detect finds over the base graph with every
    batch in `deltas` applied."""
    return tool_json(["oracle", "--graph", str(work / "noisy.tsv"),
                      "--rules", str(work / "rules.gfd"),
                      "--deltas", str(deltas)])["violations"]


def self_times(path):
    """Self time in ms (span minus the part its children cover) per span
    name, summed over the span file."""
    spans = [json.loads(line) for line in open(path)]
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (
                s["end_us"] - s["start_us"])
    out = {}
    for s in spans:
        own = s["end_us"] - s["start_us"] - child.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e3
    return out


def per_layer(rounds, bodies, report, work, workload):
    n = min([len(rd["sent"]) for rd in rounds] + [REPLAY_CAP])
    deltas = work / "replayed.tsv"
    write_deltas(deltas, bodies[:n])
    spans_path = TRACE_DIR / "serve.jsonl"
    traced = replay(work, deltas, spans_path)
    want = oracle(work, deltas)
    if traced["violations"] != want:
        raise Failure(f"replayed count {traced['violations']} != oracle "
                      f"{want} after {n} batches")
    full = [s for rd in rounds for s in rd["subs"] if s.label is None]
    served = sum(len(rd["sent"]) for rd in rounds)
    core, c4 = report["core"], report["cluster_w4"]
    w1, w4 = min(report["w1_ms"]), min(report["w4_ms"])
    # Both p50s over single passes: every round's batches, and the replay.
    ingest_p50 = median([x * 1e3 for rd in rounds for x in rd["lat"]])
    m = {
        "net.ingest_overhead_ms": ingest_p50 - traced["step_p50_ms"],
        "net.metrics_render_ms": traced["metrics_render_ms"],
        "net.frames_per_batch":
            sum(len(s.frames) for s in full) / max(1, served) /
            (len(full) / len(rounds)),
    }
    # A read waits for the store mutex behind the writer's batch. One that
    # loses the race for it when that batch ends waits out the next batch
    # too; those reads set the p95 (see RATIONALE.md, "Noise").
    reads, two_batch = [], 0
    for rd in rounds:
        ends = sorted(t + x for t, x in zip(rd["sent"], rd["lat"]))
        for t, x in rd["poller"].samples:
            reads.append(x * 1e3)
            two_batch += (bisect.bisect_left(ends, t + x) -
                          bisect.bisect_right(ends, t)) >= 2
    m["net.read_p95_ms"] = percentile(reads, 95)
    m["net.read_two_batch_share"] = two_batch / max(1, len(reads))
    for name in ("append_and_diff_ms", "set_count_ms", "materialize_ms",
                 "render_ms", "publish_ms", "compact_ms", "compactions",
                 "fsyncs_per_batch", "overlay_ops_mean",
                 "bytes_shipped_per_batch", "ops_maintenance_per_batch"):
        m[f"serve.{name}"] = traced[name]
    for name in ("full_path_share", "anchors_scanned_per_batch",
                 "matches_enumerated_per_batch", "literal_evals_per_batch",
                 "groups_skipped_share", "full_ms", "incremental_ms"):
        m[f"detect.{name}"] = traced[name]
    m["match.matches_per_anchor"] = traced["matches_per_anchor"]
    m["graph.materialized_edges_per_batch"] = \
        traced["materialized_edges_per_batch"]
    m["core.patterns_spawned"] = core["patterns_spawned"]
    m["core.candidates_validated"] = core["candidates_validated"]
    m["core.pruned_share"] = ((core["pruned_trivial"] + core["pruned_reduced"])
                              / max(1, core["candidates_generated"]))
    m["core.profile_matches"] = core["profile_matches"]
    for name in ("match_s", "validate_s", "bytes_shipped", "messages",
                 "max_skew", "matches_rebalanced"):
        m[f"parallel.{name}"] = c4[name]
    m["parallel.speedup_w1_w4"] = w1 / w4 if w4 else 0.0
    m["trace_overhead_share"] = (traced["traced_step_mean_ms"] /
                                 traced["bare_step_mean_ms"] - 1)

    # Self time per layer and batch, from the spans and the detect
    # histogram (detection runs inside serve.append_and_diff).
    own = self_times(spans_path)
    per = lambda name: own.get(name, 0.0) / max(1, traced["traced"])
    detect = traced["detect_ms_per_batch"]
    layers = {
        "net": m["net.ingest_overhead_ms"],
        "serve": sum(per(x) for x in ("serve.step", "serve.append_and_diff",
                                      "serve.set_count", "serve.render",
                                      "serve.publish", "serve.compact"))
        - detect,
        "detect+match": detect,
        "graph": per("serve.materialize"),
    }
    print(f"self time per traced batch on {workload} ({traced['traced']} of "
          f"{n} replayed batches traced; spans in "
          f"{spans_path.relative_to(ROOT)}):")
    for layer, ms in layers.items():
        print(f"  {layer:<14} {ms:10.3f} ms")
    for tag in ("w4", "w1"):
        c = report[f"cluster_{tag}"]
        wall = report["round1"][f"{tag}_ms"] / 1e3
        print(f"self time of ParDis n={tag[1:]} on {workload} (round 1's "
              f"run; match/validation from its ClusterStats): parallel "
              f"{wall - c['match_s'] - c['validate_s']:.3f} s, match "
              f"{c['match_s']:.3f} s, core {c['validate_s']:.3f} s")
    print(f"trace_overhead_share {m['trace_overhead_share']:+.4f} (traced "
          f"{traced['traced_step_mean_ms']:.3f} ms vs untraced "
          f"{traced['bare_step_mean_ms']:.3f} ms per batch)")
    return m


def print_summary(workload, seed, rounds, report, values, per_round, failed,
                  attempted):
    """Every end-to-end metric by name and unit, with how it was taken."""
    served = "/".join(str(len(rd["replies"])) for rd in rounds)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {served} "
          f"batches, failed_share {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    for name, unit in END_TO_END:
        if name in per_round[0]:
            detail = "each batch's best of the rounds; rounds alone: " + \
                ", ".join(f"{v[name]:.3f}" for v in per_round)
        elif name == "setup_s":
            detail = f"median of {len(report['setup_samples'])} launches"
        elif name == "peak_rss_mb":
            detail = ("median of rounds' server VmHWM at the last batch: " +
                      ", ".join(f"{rd['peak_rss_mb']:.2f}" for rd in rounds))
        else:
            runs = len(report["w4_ms" if "w4" in name else "w1_ms"])
            detail = f"best of {runs} runs"
        print(f"  {name:<22} {values[name]:12.4f} {unit:<4} {detail}")


# ---------------------------------------------------------------- main

TRACE_DIR = None


def run_workload(workload, seed, seconds, trace):
    global TRACE_DIR
    # Named after nothing the workload sets: the server and the miner get
    # paths under it, and nothing they receive may identify the workload.
    work = BUILD / "runs" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    TRACE_DIR = BUILD / "traces" / f"{workload}-{seed}" if trace else None
    if TRACE_DIR:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        TRACE_DIR.mkdir(parents=True)
    try:
        report = prepare(workload, work)
        rounds, bodies = serve_rounds(workload, seed, seconds, work, report)
        attempted, failed, problems = check(rounds, bodies, report, work)
        for p in problems[:20]:
            log(f"check failed: {p}")
        values, per_round = end_to_end(rounds, report)
        print_summary(workload, seed, rounds, report, values, per_round,
                      failed, attempted)
        if trace:
            metrics = per_layer(rounds, bodies, report, work, workload)
            out = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in metrics.items()}
        else:
            units = dict(END_TO_END)
            out = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": out}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    sys.setswitchinterval(0.0005)  # load-generator threads wake promptly
    # SIGTERM unwinds like an exception, so every server and helper this
    # run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"build failed: {e}")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except (Failure, OSError, subprocess.CalledProcessError) as e:
            log(f"{name}: {e}")
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
