#!/usr/bin/env python3
"""The nanodec benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the CLI and the benchmark's in-process replay from source
(`dune build --profile release`), generates the workload's inputs from
--seed, drives the built `nanodec` binary for --seconds, checks every
output, and prints as its last stdout line one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing at all.  With --trace 1 the same load runs, then the sent lines
are replayed in-process (perfbench/replay.ml) with spans around the calls
into each layer, and the metrics are the per-layer ones.  The line
before the result is a JSON record of the run: environment, counts, the
tail percentile used and the sample count behind it.  Spans and the
replay's files go to .perfbench-out/ under the repository root.

Workloads (the program sees only the generated request or command lines;
load comes from this one process with at most two connections):

  serve-cold-mc   pipelined bursts of Monte-Carlo yield/evaluate requests
                  over the 12 Fig. 7 designs on two connections, about
                  half the bursts duplicating the other connection's keys.
  serve-warm-mix  Zipf-skewed closed-form evaluate/codes/sweep plus hot MC
                  yields over a working set larger than the 256-entry
                  cache, 10% with exec.timeout, a stats poll every ~100.
  cli-figures     the CLI regenerating figures fig5..multivalued, the
                  headline numbers and a Monte-Carlo evaluate per Fig. 7
                  design, one process per command.

Each workload's measured phase runs on one CPU (see one_cpu); numbers are
taken on whatever machine runs this, typically a shared 2-CPU container,
and no parallel speedup is claimed from them.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench-out"
CLI = os.path.join("_build", "default", "bin", "nanodec_cli.exe")
REPLAY = os.path.join("_build", "default", "perfbench", "replay.exe")
REFERENCE = os.path.join(HERE, "figures.ref.json")

FIG7 = [("TC", 6), ("TC", 8), ("TC", 10), ("BGC", 6), ("BGC", 8), ("BGC", 10),
        ("HC", 4), ("HC", 6), ("HC", 8), ("AHC", 4), ("AHC", 6), ("AHC", 8)]
FIGURES = ["fig5", "fig6", "fig7", "fig8", "multivalued"]

CLIENT_TIMEOUT_S = 30.0
TAIL_GRID = [90.0, 95.0, 99.0, 99.9]

# Cold-MC: samples per request; one burst is the 12 Fig. 7 designs.
COLD_SAMPLES = 600
# Warm-mix: samples of the hot MC yields; request mix.
WARM_SAMPLES = 400
WARM_YIELD_FRAC = 0.15
WARM_TIMEOUT_FRAC = 0.10
WARM_STATS_EVERY = 200  # per connection, so ~every 100 requests overall
# CLI: samples per evaluate.
CLI_SAMPLES = 2000
SETUP_SPAWNS = 15
CLI_SETUP_RUNS = 15


def now():
    return time.perf_counter()


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(sorted_xs, q):
    """Linear-interpolated quantile (q in [0, 100]) of a sorted list."""
    if not sorted_xs:
        return 0.0
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def windowed_rps(done, t_start, t_end, window=1.0):
    """Completions per second: the interquartile mean over the run's whole
    windows, so a transient stall of the shared machine moves it little."""
    n_win = int((t_end - t_start) / window)
    if n_win < 4:
        return len(done) / max(1e-9, t_end - t_start)
    counts = [0] * n_win
    for t in done:
        k = int((t - t_start) / window)
        if 0 <= k < n_win:
            counts[k] += 1
    counts.sort()
    mid = counts[n_win // 4: n_win - n_win // 4]
    return sum(mid) / len(mid) / window


def latency_summary(lat_s):
    """p50 and the highest grid percentile with >= 10 samples beyond it."""
    xs = sorted(lat_s)
    n = len(xs)
    tail_q = TAIL_GRID[0]
    for q in TAIL_GRID:
        if n * (100.0 - q) / 100.0 >= 10:
            tail_q = q
    return {
        "p50_ms": quantile(xs, 50) * 1e3,
        "tail_ms": quantile(xs, tail_q) * 1e3,
        "tail_percentile": tail_q,
        "samples": n,
    }


# --- build and environment -------------------------------------------------


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./bin/nanodec_cli.exe", "./perfbench/replay.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        print(r.stdout, file=sys.stderr)
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, to report the share of CPU
    time the host took from this machine during the run."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        return v[7], sum(v)
    except (OSError, ValueError, IndexError):
        return 0, 0


def source_digest():
    """sha256 over the sources the benchmark builds, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment():
    # git must not look above the checkout for a repository
    git_env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))

    def cmd(args):
        try:
            r = subprocess.run(args, stdout=subprocess.PIPE, env=git_env,
                               stderr=subprocess.DEVNULL, text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "ocaml": cmd(["ocamlopt", "-version"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "domains": int(os.environ.get("NANODEC_DOMAINS", nproc)),
        "note": "shared %d-CPU machine; no parallel speedup is claimed" % nproc,
    }


# --- /proc sampling --------------------------------------------------------


def proc_status(pid):
    out = {}
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                k, _, v = line.partition(":")
                if k in ("VmHWM", "Threads"):
                    out[k] = int(v.split()[0])
    except (OSError, ValueError):
        pass
    return out


class ThreadSampler:
    """Samples Threads of a pid (or of whatever pid_fn returns) every 20 ms."""

    def __init__(self, pid_fn):
        self.pid_fn = pid_fn
        self.max = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.loop, daemon=True)
        self.thread.start()

    def loop(self):
        while not self.stop.wait(0.02):
            pid = self.pid_fn()
            if pid:
                self.max = max(self.max, proc_status(pid).get("Threads", 0))

    def finish(self):
        self.stop.set()
        self.thread.join()
        return self.max


# --- the daemon ------------------------------------------------------------


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(CLIENT_TIMEOUT_S)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, lines):
        self.sock.sendall("".join(l + "\n" for l in lines).encode())

    def recv(self):
        """One response line, or None on timeout / closed connection."""
        try:
            line = self.reader.readline()
        except (OSError, socket.timeout):
            return None
        return line.decode().rstrip("\n") if line.endswith(b"\n") else None

    def request(self, line):
        self.send([line])
        return self.recv()

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """`nanodec serve` with its default flags on a Unix socket."""

    def __init__(self, tag):
        self.path = os.path.join(OUT, tag + ".sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        t0 = now()
        self.proc = subprocess.Popen([CLI, "serve", "--socket", self.path],
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            if now() - t0 > 30:
                self.stop()
                raise RuntimeError("daemon did not answer within 30 s")
            try:
                c = Conn(self.path)
                break
            except OSError:
                time.sleep(0.0005)
        reply = c.request('{"verb":"ping"}')
        self.setup_s = now() - t0
        c.close()
        if reply is None or '"pong":true' not in reply:
            self.stop()
            raise RuntimeError("daemon did not answer ping")

    def stats(self):
        c = Conn(self.path)
        reply = c.request('{"verb":"stats"}')
        c.close()
        return json.loads(reply)["result"]

    def stop(self):
        try:
            c = Conn(self.path)
            c.request('{"verb":"shutdown"}')
            c.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.path):
            os.unlink(self.path)


@contextlib.contextmanager
def one_cpu():
    """Run a workload's measured phase on one CPU; every process it starts
    inherits the affinity.  On a shared 2-vCPU machine, cross-CPU wakeups
    and pool barriers turn the host's CPU steal into several-fold swings
    of client latency; on one CPU the slowdown stays proportional.  The
    benchmark therefore measures no parallel speedup."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield sorted(os.sched_getaffinity(0))
    finally:
        os.sched_setaffinity(0, cpus)


def daemon_setup_times():
    """Spawn-to-first-ping, measured on fresh daemons (median taken later)."""
    times = []
    for i in range(SETUP_SPAWNS):
        d = Daemon("setup%d" % i)
        times.append(d.setup_s)
        d.stop()
    return times


# --- request generation ----------------------------------------------------


def line_of(rid, verb, params=None, exec_=None):
    req = {"id": rid, "verb": verb}
    if params:
        req["params"] = params
    if exec_:
        req["exec"] = exec_
    return json.dumps(req, separators=(",", ":"))


def cold_bursts(seed, conn, offset=0):
    """Connection `conn`'s bursts: each is the 12 Fig. 7 designs with MC.

    Round decisions come from one per-round stream both connections draw
    identically: exactly one round of each consecutive pair is shared (both
    connections send the same estimate keys at about the same time), and
    every burst has six plain and six importance requests, six yields and
    six evaluates, in a shuffled order.  `offset` moves the MC seeds to
    a disjoint range (the untimed warm-up rounds use one)."""
    base = (seed % 100000) * 1000003 + offset
    rid = conn * 10**9
    r = 0
    while True:
        rr = random.Random("cold-pair-%d-%d" % (seed, r // 2))
        shared_first = rr.random() < 0.5
        rr = random.Random("cold-round-%d-%d" % (seed, r))
        shared = shared_first == (r % 2 == 0)
        mc_seed = base + 3 * r + (0 if shared else 1 + conn)
        order = FIG7[:]
        rr.shuffle(order)
        methods = ["plain", "importance"] * 6
        rr.shuffle(methods)
        verbs = ["yield", "evaluate"] * 6
        random.Random("cold-verbs-%d-%d-%d" % (seed, r, conn)).shuffle(verbs)
        burst = []
        for (code, length), method, verb in zip(order, methods, verbs):
            rid += 1
            burst.append(line_of(rid, verb, {"code": code, "length": length},
                                 {"mc_samples": COLD_SAMPLES, "seed": mc_seed,
                                  "method": method}))
        yield burst
        r += 1


def warm_items(seed):
    """The warm-mix working set: closed-form items in popularity-rank order,
    and the hot MC yields.  Which verb sits at each rank follows one fixed
    pattern, so every seed has the same per-verb popularity; the seed picks
    which item of that verb fills the rank."""
    rng = random.Random("warm-items-%d" % seed)
    by_verb = {"evaluate": [], "codes": [], "sweep": []}
    for code, length in FIG7:
        for wires in (12, 16, 20, 24, 28, 32):
            for raw in (65536, 131072, 262144, 524288):
                by_verb["evaluate"].append({"code": code, "length": length,
                                            "wires": wires, "raw_bits": raw})
        for count in (8, 16, 32, 64):
            by_verb["codes"].append({"code": code, "length": length,
                                     "count": count})
    for wires in (12, 16, 20, 24, 28, 32):
        for raw in (65536, 131072, 262144):
            by_verb["sweep"].append({"wires": wires, "raw_bits": raw})
    pattern = [v for v, items in sorted(by_verb.items()) for _ in items]
    random.Random("warm-pattern").shuffle(pattern)
    for items in by_verb.values():
        rng.shuffle(items)
    closed = [(v, by_verb[v].pop()) for v in pattern]
    hot = [("yield", {"code": c, "length": l}) for c, l in FIG7]
    return closed, hot


def warm_stream(seed, conn, closed, hot):
    """Connection `conn`'s requests: Zipf(1.0) over the closed-form items,
    WARM_YIELD_FRAC uniform over the hot MC yields, WARM_TIMEOUT_FRAC with
    exec.timeout, a stats poll every WARM_STATS_EVERY."""
    rng = random.Random("warm-%d-%d" % (seed, conn))
    weights = [1.0 / (k + 1) for k in range(len(closed))]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    rid = conn * 10**9
    i = 0
    while True:
        i += 1
        rid += 1
        if i % WARM_STATS_EVERY == 0:
            yield line_of(rid, "stats")
            continue
        if rng.random() < WARM_YIELD_FRAC:
            verb, params = rng.choice(hot)
            ex = {"mc_samples": WARM_SAMPLES, "seed": 2009}
        else:
            verb, params = rng.choices(closed, cum_weights=cum)[0]
            ex = {}
        if rng.random() < WARM_TIMEOUT_FRAC:
            ex = dict(ex, timeout=60.0)
        yield line_of(rid, verb, params, ex or None)


def probe_lines(seed):
    """One line per verb and a deadline-bearing MC line, for the traced
    replay of workloads that do not send every verb."""
    rng = random.Random("probe-%d" % seed)
    code, length = rng.choice(FIG7)
    p = {"code": code, "length": length}
    return [
        line_of(1, "evaluate", p),
        line_of(2, "yield", p, {"mc_samples": WARM_SAMPLES, "seed": 2009}),
        line_of(3, "yield", p, {"mc_samples": WARM_SAMPLES, "seed": 2009,
                                "timeout": 60.0}),
        line_of(4, "codes", dict(p, count=16)),
        line_of(5, "sweep", {"wires": 20}),
        line_of(6, "stats"),
    ]


# --- response checks -------------------------------------------------------

CACHED = re.compile(r'"cached":(true|false)')


def mask(resp):
    return CACHED.sub('"cached":_', resp, count=1)


def brackets(mean, se, exact):
    return abs(mean - exact) <= 6.0 * se + 1e-12


def check_response(line, resp, problems):
    """Structural checks: status ok, MC estimates bracket the closed form."""
    try:
        r = json.loads(resp)
    except ValueError:
        problems.append("unparsable response to " + line)
        return False
    if r.get("status") != "ok":
        return False
    res = r.get("result", {})
    mc = res.get("mc")
    if mc is not None:
        exact = res.get("analytic_yield", res.get("cave_yield"))
        if exact is None or not brackets(mc["mean"], mc["std_error"], exact):
            problems.append("MC estimate misses the closed form: " + resp)
    return True


# --- serve workloads -------------------------------------------------------


class Record:
    """Per-request client records, kept in memory until the run ends."""

    def __init__(self):
        self.lock = threading.Lock()
        self.rows = []  # (t_send, t_recv, conn, line, response or None)

    def add(self, rows):
        with self.lock:
            self.rows.extend(rows)


COLD_WARMUP_ROUNDS = 2


def run_cold(seed, seconds, daemon, record, warmup):
    """Two connections in a closed loop of pipelined bursts for `seconds`,
    after COLD_WARMUP_ROUNDS untimed rounds on seeds the timed rounds
    never use (recorded into `warmup`)."""

    def client(conn, bursts, deadline, rounds, sink):
        c = Conn(daemon.path)
        for i, burst in enumerate(bursts):
            if i >= rounds or now() >= deadline:
                break
            t0 = now()
            c.send(burst)
            rows = []
            for line in burst:
                resp = c.recv()
                rows.append((t0, now(), conn, line, resp))
                if resp is None:
                    break
            sink.add(rows)
            if rows[-1][4] is None:
                break
        c.close()

    def drive(offset, deadline, rounds, sink):
        threads = [threading.Thread(
            target=client,
            args=(k, cold_bursts(seed, k, offset), deadline, rounds, sink))
            for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    drive(500000, now() + 60, COLD_WARMUP_ROUNDS, warmup)
    t_start = now()
    drive(0, t_start + seconds, 10**9, record)
    return t_start, now()


def run_warm(seed, seconds, daemon, record, round_s):
    closed, hot = warm_items(seed)
    # warm-up pass: every item once, on one connection (not timed)
    c = Conn(daemon.path)
    warm = [line_of(900000 + i, v, p, {"mc_samples": WARM_SAMPLES, "seed": 2009}
                    if v == "yield" else None)
            for i, (v, p) in enumerate(hot + closed)]
    rows = []
    for line in warm:
        t0 = now()
        resp = c.request(line)
        rows.append((t0, now(), -1, line, resp))
    c.close()
    warmup_rows = rows
    deadline = now() + seconds
    t_start = now()

    def client(conn):
        c = Conn(daemon.path)
        rows = []
        t_round = now()
        for line in warm_stream(seed, conn, closed, hot):
            if now() >= deadline:
                break
            t0 = now()
            resp = c.request(line)
            rows.append((t0, now(), conn, line, resp))
            if len(rows) % 100 == 0:
                round_s.append(now() - t_round)
                t_round = now()
            if resp is None:
                break
        c.close()
        record.add(rows)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return t_start, now(), warmup_rows


def replay(lines_path, tag, trace, seed):
    """Run the in-process replay; returns (responses, metrics, handle_ns)."""
    resp_path = os.path.join(OUT, tag + ".responses")
    args = [REPLAY, "serve", "--lines", lines_path, "--responses", resp_path]
    metrics_path = os.path.join(OUT, tag + ".layers.json")
    handle_path = os.path.join(OUT, tag + ".handle")
    if trace:
        probe_path = os.path.join(OUT, tag + ".probe")
        with open(probe_path, "w") as f:
            f.write("\n".join(probe_lines(seed)) + "\n")
        args += ["--probe-lines", probe_path, "--metrics", metrics_path,
                 "--spans", os.path.join(OUT, tag + ".replay-spans.json"),
                 "--handle-times", handle_path]
    r = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        raise RuntimeError("replay failed: " + r.stderr[-2000:])
    with open(resp_path) as f:
        responses = f.read().splitlines()
    metrics, handle = {}, []
    if trace:
        with open(metrics_path) as f:
            metrics = json.load(f)
        with open(handle_path) as f:
            handle = [int(l.split()[1]) for l in f if l.strip()]
    return responses, metrics, handle


def serve_workload(name, seed, seconds, trace):
    with one_cpu() as cpus:
        setup = daemon_setup_times()
        daemon = Daemon("main")
        setup.append(daemon.setup_s)
        sampler = ThreadSampler(lambda: daemon.proc.pid)
        record = Record()
        round_s = []
        warmup_rows = []
        try:
            if name == "serve-cold-mc":
                warm = Record()
                t_start, t_end = run_cold(seed, seconds, daemon, record, warm)
                warmup_rows = warm.rows
                # one round = one burst on a connection, send to last response
                bursts = {}
                for t0, t1, conn, _, _ in record.rows:
                    bursts[(conn, t0)] = max(bursts.get((conn, t0), 0.0),
                                             t1 - t0)
                round_s = list(bursts.values())
            else:
                t_start, t_end, warmup_rows = run_warm(seed, seconds, daemon,
                                                       record, round_s)
            stats = daemon.stats()
            stats.pop("keys", None)
            status = proc_status(daemon.proc.pid)
        finally:
            threads_max = sampler.finish()
            daemon.stop()

    rows = record.rows
    problems = []
    sent = len(rows)
    ok = 0
    lat, done = [], []
    for t0, t1, _, line, resp in rows:
        good = resp is not None and check_response(line, resp, problems)
        ok += good
        lat.append(t1 - t0 if good else CLIENT_TIMEOUT_S)
        if good:
            done.append(t1)
    failed = sent - ok
    for _, _, _, line, resp in warmup_rows:
        if resp is None or not check_response(line, resp, problems):
            problems.append("warm-up request failed: " + line)

    # Correctness: the serial in-process replay of every line, in the
    # order the responses arrived, on a fresh state.
    all_rows = sorted(warmup_rows + rows, key=lambda r: r[1])
    lines_path = os.path.join(OUT, name + ".lines")
    with open(lines_path, "w") as f:
        f.write("\n".join(r[3] for r in all_rows) + "\n")
    ref, layers, handle = replay(lines_path, name, trace, seed)
    mismatches = 0
    for (_, _, _, line, resp), want in zip(all_rows, ref):
        if resp is None or '"verb":"stats"' in line:
            continue
        if mask(resp) != mask(want):
            mismatches += 1
            if mismatches <= 3:
                problems.append("response differs from the replay: %s\n  got  %s\n  want %s"
                                % (line, resp, want))
    if len(ref) != len(all_rows):
        problems.append("replay answered %d of %d lines" % (len(ref), len(all_rows)))

    lat_sum = latency_summary(lat)
    cache = stats["cache"]
    batch = stats["serve"]["batch"] or {}
    stats_sizes = [len(r[4]) for r in rows if r[4] and '"verb":"stats"' in r[3]]
    detail = {
        "workload": name, "seed": seed, "sent": sent, "ok": ok, "failed": failed,
        "mismatches": mismatches, "wall_s": t_end - t_start, "latency": lat_sum,
        "setup_samples": len(setup), "daemon_stats": stats,
        "threads_max": threads_max, "vm_hwm_kb": status.get("VmHWM"),
        "cpus": cpus,
    }
    end_to_end = {
        "setup_s": (median(setup), "s"),
        "lat_p50_ms": (lat_sum["p50_ms"], "ms"),
        "lat_tail_ms": (lat_sum["tail_ms"], "ms"),
        "rps": (windowed_rps(done, t_start, t_end), "1/s"),
        "ok_frac": (ok / max(1, sent), "frac"),
        "figures_s": (median(round_s), "s"),
        "peak_rss_mb": (status.get("VmHWM", 0) / 1024.0, "MB"),
    }
    per_layer = {}
    if trace:
        overhead = []
        prefix = int(layers["replay.prefix_lines"])
        for (t0, t1, _, _, resp), h in zip(all_rows[:prefix], handle):
            if resp is not None:
                overhead.append((t1 - t0) * 1e3 - h / 1e6)
        lookups = cache["hits"] + cache["misses"]
        per_layer = layer_metrics(layers, {
            "server.overhead_ms_p50": median(overhead),
            "batcher.fused_frac": batch.get("fused_requests", 0) / max(1, stats["requests"]),
            "batcher.size_max": batch.get("size_max", 0),
            "server.shed": stats["serve"]["shed"],
            "daemon.threads_max": threads_max,
            "protocol.stats_bytes": median(stats_sizes) if stats_sizes else layers["protocol.stats_bytes"],
            "cache.hit_ratio": cache["hits"] / max(1, lookups),
            "cache.evictions": cache["evictions"],
            "cache.dup_builds": cache["misses"] - layers["replay.misses"],
            "cache.build_s": cache["build_s"],
        })
        write_client_spans(name, seed, rows)
    correct = not problems and mismatches == 0
    return correct, sent, failed, end_to_end, per_layer, detail, problems


# --- cli workload ----------------------------------------------------------


def run_cmd(args, current=None):
    """Run one CLI process; returns (wall_s, exit code, stdout, maxrss_kb).
    `current["pid"]` names the running process for the thread sampler."""
    t0 = now()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if current is not None:
        current["pid"] = p.pid
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if current is not None:
        current["pid"] = 0
    return wall, p.returncode, out.decode(), ru.ru_maxrss


def cli_commands(mc_seed):
    cmds = [("figures " + f, [CLI, "figures", f]) for f in FIGURES]
    cmds.append(("headlines", [CLI, "headlines"]))
    for code, length in FIG7:
        cmds.append(("evaluate %s %d" % (code, length),
                     [CLI, "evaluate", "-c", code, "-m", str(length),
                      "--mc-samples", str(CLI_SAMPLES), "--domains", "2",
                      "--seed", str(mc_seed)]))
    return cmds


MC_LINE = re.compile(r"^monte-carlo yield check: .*$", re.M)


def closed_form_digests(outputs):
    """sha256 of each command's seed-independent output (MC line removed)."""
    return {k: hashlib.sha256(MC_LINE.sub("", v).encode()).hexdigest()
            for k, v in outputs.items()}


def cli_workload(seed, seconds, trace, write_reference=False):
    with one_cpu() as cpus:
        setup = []
        for _ in range(CLI_SETUP_RUNS):
            wall, code, _, _ = run_cmd([CLI, "--version"])
            if code != 0:
                raise RuntimeError("nanodec --version failed")
            setup.append(wall)
        mc_seed = 1 + seed % 1000000
        cmds = cli_commands(mc_seed)
        current = {"pid": 0}
        sampler = ThreadSampler(lambda: current["pid"])
        lat, regen, rss, done = [], [], [], []
        sent = failed = 0
        problems = []
        cmd_walls = {}

        def regenerate(timed):
            nonlocal sent, failed
            outputs = {}
            for key, args in cmds:
                w, code, out, maxrss = run_cmd(args, current)
                rss.append(maxrss)
                outputs[key] = out
                if not timed:
                    if code != 0:
                        problems.append("%s exited %d" % (key, code))
                    continue
                sent += 1
                if code != 0:
                    failed += 1
                    lat.append(CLIENT_TIMEOUT_S)
                    problems.append("%s exited %d" % (key, code))
                else:
                    lat.append(w)
                    done.append(now())
                cmd_walls.setdefault(key, []).append(w)
            return outputs

        # one untimed regeneration: its output is the one every timed
        # regeneration must repeat
        first = regenerate(False)
        deadline = now() + seconds
        t_start = now()
        while now() < deadline:
            t0 = now()
            if regenerate(True) != first:
                problems.append("a regeneration printed different output")
            regen.append(now() - t0)
        t_end = now()
        threads_max = sampler.finish()

    digests = closed_form_digests(first)
    if write_reference:
        with open(REFERENCE, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
    with open(REFERENCE) as f:
        want = json.load(f)
    for k, d in sorted(digests.items()):
        if want.get(k) != d:
            problems.append("closed-form output of `%s` differs from %s"
                            % (k, os.path.basename(REFERENCE)))
    # MC lines: equal to the in-process estimate and bracketing the
    # closed-form yield.
    designs_path = os.path.join(OUT, "cli-figures.designs")
    mc_path = os.path.join(OUT, "cli-figures.mc")
    with open(designs_path, "w") as f:
        f.write("".join("%s %d\n" % d for d in FIG7))
    r = subprocess.run([REPLAY, "cli", "--designs", designs_path, "--samples",
                        str(CLI_SAMPLES), "--seed", str(mc_seed), "--out", mc_path],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("replay failed: " + r.stderr[-2000:])
    with open(mc_path) as f:
        for row, (code, length) in zip(f, FIG7):
            _, _, exact, mc_line = row.rstrip("\n").split(" ", 3)
            got = MC_LINE.search(first["evaluate %s %d" % (code, length)])
            if got is None or got.group(0) != mc_line:
                problems.append("evaluate %s %d: MC line differs from the replay"
                                % (code, length))
                continue
            m = re.search(r": ([0-9.]+) \+/- ([0-9.]+)", mc_line)
            if not brackets(float(m.group(1)), float(m.group(2)), float(exact)):
                problems.append("evaluate %s %d: MC misses the closed form" % (code, length))

    lat_sum = latency_summary(lat)
    ok = sent - failed
    detail = {
        "workload": "cli-figures", "seed": seed, "sent": sent, "ok": ok,
        "failed": failed, "regenerations": len(regen), "wall_s": t_end - t_start,
        "cpus": cpus,
        "latency": lat_sum, "setup_samples": len(setup),
    }
    end_to_end = {
        "setup_s": (median(setup), "s"),
        "lat_p50_ms": (lat_sum["p50_ms"], "ms"),
        "lat_tail_ms": (lat_sum["tail_ms"], "ms"),
        "rps": (windowed_rps(done, t_start, t_end), "1/s"),
        "ok_frac": (ok / max(1, sent), "frac"),
        "figures_s": (median(regen), "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    per_layer = {}
    if trace:
        # The evaluate commands as the equivalent protocol lines: the
        # in-process cost of each command, so process overhead = command
        # wall time minus that cost.
        lines = [line_of(i + 1, "evaluate", {"code": c, "length": l},
                         {"mc_samples": CLI_SAMPLES, "seed": mc_seed})
                 for i, (c, l) in enumerate(FIG7)]
        lines_path = os.path.join(OUT, "cli-figures.lines")
        with open(lines_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        _, layers, handle = replay(lines_path, "cli-figures", True, seed)
        overhead = []
        prefix = int(layers["replay.prefix_lines"])
        for i, (c, l) in enumerate(FIG7[:prefix]):
            overhead.append(median(cmd_walls["evaluate %s %d" % (c, l)]) * 1e3
                            - handle[i] / 1e6)
        for f in FIGURES + ["headlines"]:
            key = f if f == "headlines" else "figures " + f
            overhead.append(median(cmd_walls[key]) * 1e3 - layers["figures.%s_ms" % f])
        per_layer = layer_metrics(layers, {
            "server.overhead_ms_p50": median(overhead),
            "batcher.fused_frac": 0,
            "batcher.size_max": 0,
            "server.shed": 0,
            "daemon.threads_max": threads_max,
            "protocol.stats_bytes": layers["protocol.stats_bytes"],
            "cache.hit_ratio": 0,
            "cache.evictions": 0,
            "cache.dup_builds": 0,
            "cache.build_s": layers["replay.build_s"],
        })
        write_client_spans("cli-figures", seed, [])
    return (not problems), sent, failed, end_to_end, per_layer, detail, problems


# --- per-layer assembly ----------------------------------------------------


def load_layer_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)["per_layer"]


def layer_metrics(layers, external):
    merged = dict(layers)
    merged.update(external)
    out = {}
    for m in load_layer_spec():
        v = merged.get(m["name"])
        out[m["name"]] = (float(v) if v is not None else 0.0, m["unit"])
    return out


def write_client_spans(name, seed, rows):
    path = os.path.join(OUT, "%s-%d.client-spans.json" % (name, seed))
    with open(path, "w") as f:
        json.dump([{"req": i, "conn": conn, "name": "client.request",
                    "start_s": t0, "end_s": t1}
                   for i, (t0, t1, conn, _, _) in enumerate(rows)], f)


# --- main ------------------------------------------------------------------

WORKLOADS = ["serve-cold-mc", "serve-warm-mix", "cli-figures"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite figures.ref.json from this run's output")
    a = ap.parse_args()
    # a SIGTERM unwinds through the `finally` blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("dune-project", os.path.join("bin", "dune"), "lib"):
        if not os.path.exists(need):
            fail_setup("run from the repository root (no %s here)" % need)
    build()
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    steal0 = cpu_ticks()
    if a.workload == "cli-figures":
        res = cli_workload(a.seed, a.seconds, a.trace, a.write_reference)
    else:
        res = serve_workload(a.workload, a.seed, a.seconds, a.trace)
    correct, sent, failed, e2e, layers, detail, problems = res
    env["loadavg_end"] = os.getloadavg()
    steal1 = cpu_ticks()
    env["steal_frac"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    detail["env"] = env
    detail["problems"] = problems[:10]
    for p in problems[:10]:
        print("perfbench: " + p, file=sys.stderr)
    metrics = layers if a.trace else e2e
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": sent,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
