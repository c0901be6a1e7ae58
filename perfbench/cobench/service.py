"""``service-open``: open-loop Poisson load against ``cosched serve``.

The server runs in its own process with default flags apart from the
port.  Requests are generated from the seed before the clock starts and
sent over at most ``SENDERS`` concurrent connections; each request is
timed from its *due* time, so a stall also charges the requests queued
behind it.  The mix:

* ``cold`` — the next problem of a fixed pool of distinct
  ``random_serial_instance`` problems (n in 8/12/16), solved with
  ``hastar`` (a store write);
* ``repeat`` — an earlier cold problem sent again, half of them rebuilt
  with a permuted job order so only the fingerprint matches (a store
  read; the answer must come back in the requester's labelling);
* ``delta`` — ``POST /delta`` of an earlier cold problem with one job's
  miss rate changed (the ``online`` repair path).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional

from . import checks, hostspeed, layers
from .spans import Recorder
from .stats import latency_summary, median, percentile, worst_mean

HERE = os.path.dirname(os.path.abspath(__file__))
SENDERS = 2
#: Fixed shares, chosen for what they cover rather than taken from a
#: production trace: misses (cold) and hits (repeat) weigh the same in
#: ``req_ms_*``, and cold requests alone give ``solve_ms_*``, so each gets
#: 40 %; deltas report only a median, so 20 % (160 per 20 s run) is
#: plenty.
MIX = (("cold", 0.4), ("repeat", 0.4), ("delta", 0.2))
SIZES = (8, 12, 16)
#: ``service.slo_rps`` — the knee of the ladder below — as measured on
#: the reference host (2 vCPUs; 4 of 4 ladders read 160).
KNEE_RPS = 160.0
#: Offered load of the measured stream: a quarter of the knee, so queue
#: wait shows in the tail while the run-to-run spread of the latencies
#: stays well inside their bounds (at half the knee it did not).
RATE = 0.25 * KNEE_RPS
#: Repeats and deltas draw their base from this many latest cold requests.
RECENT = 256
#: Instance seed of entry 0 of the cold-problem pool.
POOL_SEED = 1000
#: Untimed requests sent to a fresh server first (lazy imports, caches).
WARMUP_S = 1.0
#: Server starts per run; the median start-up time joins ``setup_s``.
STARTS = 3
#: Fixed ladder of offered rates (traced runs), seconds per rung, and the
#: latency limit on each rung's tail that defines ``service.slo_rps``.
LADDER = (40.0, 80.0, 160.0, 240.0, 320.0, 480.0)
RUNG_S = 2.5
SLO_TAIL_MS = 25.0
WAIT_S = 60.0
#: One connection per request, as ``repro.service.ServiceClient`` does.
#: On a kept-alive connection the server's two writes per response (head,
#: then body) meet Nagle's algorithm and the client's delayed ACK, which
#: adds about 40 ms to every answer and would hide the program's own work.
HEADERS = {"Content-Type": "application/json", "Connection": "close"}
#: Host-speed probes run only when the next request is due at least
#: PROBE_GAP_S off (a probe takes about a third of a millisecond), at
#: most one per PROBE_EVERY_S (a few % of one CPU); otherwise the prober
#: sleeps PROBE_POLL_S and looks again.
PROBE_GAP_S = 0.004
PROBE_EVERY_S = 0.01
PROBE_POLL_S = 0.001
#: With two or more CPUs the server and the probe stand-in run on the
#: first of them and the load generator on the second, so a probe sees
#: the server's CPU and neither side migrates.
SERVER_CPU, CLIENT_CPU = 0, 1
#: Median round trip of a probe on the reference host (see hostspeed).
REF_PROBE_RTT_S = 2.0e-3
#: A request's latency is adjusted by the probes within this many seconds
#: of its due time, if there are at least PROBE_MIN of them.
PROBE_WINDOW_S = 1.0
PROBE_MIN = 20


# --------------------------------------------------------------------- #
# request stream


def _serial_problem(rates):
    """A quad-cluster serial problem over ``rates``, built with the
    package's public constructors exactly as ``random_serial_instance``
    builds its instances."""
    from repro import CoSchedulingProblem, MissRatePressureModel, Workload
    from repro import serial_job
    from repro.core.machine import CLUSTERS

    cluster = CLUSTERS["quad"]
    jobs = [serial_job(i, f"syn{i}", profile_name=f"syn{i}")
            for i in range(len(rates))]
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    model = MissRatePressureModel(miss_rates=list(rates),
                                  cores=cluster.cores)
    return CoSchedulingProblem(wl, cluster, model)


def cold_problem(j: int):
    """Entry ``j`` of the fixed pool of cold problems."""
    from repro.workloads import random_serial_instance

    return random_serial_instance(SIZES[j % len(SIZES)], "quad",
                                  seed=POOL_SEED + j)


def make_stream(seed, rate: float, duration: float,
                first: int = 0) -> List[dict]:
    """The seeded request stream: due times, kinds, problems, bodies.

    Like the closed loops, the work is fixed: the request count, the
    exact kind mix and the cold problems (the first entries of a fixed
    pool) are the same for every seed.  The seed draws the arrival times
    (a Poisson process of that count), the order, which earlier problem a
    repeat or delta refers to, the relabellings and the perturbations.
    """
    from repro.service.codec import problem_to_dict

    rng = random.Random(seed)
    count = max(1, int(round(rate * duration)))
    dues = sorted(rng.uniform(0.0, duration) for _ in range(count))
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * int(round(share * count))
    kinds = (kinds + ["cold"] * count)[:count]
    rng.shuffle(kinds)
    # The first requests must be cold: a repeat or delta needs a cold
    # request at least three slots back.
    for i in range(min(3, count)):
        if kinds[i] != "cold":
            j = kinds.index("cold", 3)
            kinds[i], kinds[j] = kinds[j], kinds[i]
    pool = list(range(first, first + kinds.count("cold")))
    rng.shuffle(pool)
    pool_order = iter(pool)
    out: List[dict] = []
    colds: List[int] = []
    for due, kind in zip(dues, kinds):
        # Repeats and deltas refer to one of the last RECENT cold requests
        # (a working set the store's default LRU holds) that is a few
        # slots back, so it has normally been answered by then.
        ready = [i for i in colds[-RECENT:] if i < len(out) - 2]
        req: Dict[str, object] = {"due": due, "kind": kind}
        if kind == "cold":
            problem = cold_problem(next(pool_order))
            colds.append(len(out))
            body = {"problem": problem_to_dict(problem), "solver": "hastar"}
        else:
            src = out[rng.choice(ready)]
            base = src["problem"]
            rates = [float(r) for r in base.model.miss_rates]
            req["primary"] = src["index"]
            if kind == "repeat":
                order = list(range(len(rates)))
                permuted = rng.random() < 0.5
                if permuted:
                    rng.shuffle(order)
                problem = _serial_problem([rates[i] for i in order])
                req["permuted"] = permuted
                body = {"problem": problem_to_dict(problem),
                        "solver": "hastar"}
            else:
                rates[rng.randrange(len(rates))] = round(
                    rng.uniform(0.15, 0.75), 6)
                problem = _serial_problem(rates)
                body = {"base_problem": problem_to_dict(base),
                        "problem": problem_to_dict(problem),
                        "solver": "repair"}
        req["problem"] = problem
        body["wait"] = WAIT_S
        req["body"] = json.dumps(body).encode("utf-8")
        req["path"] = "/delta" if kind == "delta" else "/solve"
        req["index"] = len(out)
        out.append(req)
    return out


def stream_digest(seed: int = 0, count: int = 40) -> Dict[str, object]:
    """Fingerprints of the first requests of a seeded stream, for the
    manifest's drift check."""
    import hashlib

    from repro.service.codec import problem_fingerprint

    stream = make_stream(seed, RATE, 10.0)[:count]
    h = hashlib.sha256()
    for req in stream:
        h.update(req["kind"].encode())
        h.update(problem_fingerprint(req["problem"]).encode())
    return {"generator": "random_serial_instance",
            "args": {"n": list(SIZES), "cluster": "quad",
                     "seed": f"{POOL_SEED} + pool index"},
            "mix": dict(MIX), "knee_rps": KNEE_RPS, "rate_rps": RATE,
            "digest_seed": seed,
            "digest_requests": count, "digest": h.hexdigest()}


# --------------------------------------------------------------------- #
# server process


def pin(pid: int, index: int) -> None:
    """Pin process ``pid`` (0: this one) to the ``index``-th CPU the
    benchmark may use; no-op with fewer than two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[index]})


class Server:
    """One ``cosched serve`` process on an ephemeral port."""

    def __init__(self, root: str, out_dir: str, env: Dict[str, str],
                 spans_path: Optional[str] = None):
        self.log = os.path.join(out_dir, "server.log")
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   "--spans", spans_path, "--"]
        cmd += ["serve", "--port", "0"]
        t0 = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=dict(env, PYTHONUNBUFFERED="1"),
                stdout=log, stderr=subprocess.STDOUT)
        try:
            pin(self.proc.pid, SERVER_CPU)
            self.url = self._wait_banner()
            self._wait_answer()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - t0
        host, port = self.url.split("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def _wait_banner(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self._tail()}")
            with open(self.log, encoding="utf-8") as fh:
                for line in fh:
                    if "cosched service on " in line:
                        return line.split("cosched service on ", 1)[1].split()[0]
            time.sleep(0.01)
        raise RuntimeError("server did not start within 60 s")

    def _wait_answer(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with urllib.request.urlopen(self.url + "/metrics",
                                            timeout=5) as resp:
                    resp.read()
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def _tail(self) -> str:
        try:
            with open(self.log, encoding="utf-8") as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as r:
            return json.loads(r.read())

    def peak_rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """SIGTERM (the graceful drain) and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Echo:
    """The probe stand-in (``echo.py``) on the server's CPU."""

    def __init__(self, root: str, env: Dict[str, str], body: bytes):
        self.body = body
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "echo.py")], cwd=root,
            env=dict(env, PYTHONUNBUFFERED="1"), stdout=subprocess.PIPE,
            text=True)
        try:
            pin(self.proc.pid, SERVER_CPU)
            line = self.proc.stdout.readline()
            if "echo on " not in line:
                raise RuntimeError(f"probe stand-in did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def probe(self) -> None:
        """One probe request, answered."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("POST", "/probe", body=self.body, headers=HEADERS)
            conn.getresponse().read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------- #
# load generator


def send_stream(host: str, port: int, stream: List[dict],
                senders: int = SENDERS,
                echo: Optional["Echo"] = None) -> Dict[str, object]:
    """Send ``stream`` open-loop; returns per-request timings and bodies,
    and the host-speed probes taken while the server was idle.

    Each request waits for its due time, then for a free connection.
    ``late`` is how long after its due time a request actually left.
    With an ``echo`` stand-in server, the calling thread meanwhile sends
    it a probe request whenever no request is in flight and the next is
    due at least :data:`PROBE_GAP_S` later, so a probe never overlaps the
    server's work or delays a request; each probe is ``(start, round
    trip seconds)``.
    """
    results: List[Optional[dict]] = [None] * len(stream)
    busy = [0.0] * senders
    lock = threading.Lock()
    # Requests claimed by a sender but not yet sent, the next unclaimed
    # one, and the number in flight: what the idle test reads.
    state = {"next": 0, "inflight": 0, "waiting": set()}
    probes: List[tuple] = []
    t0 = time.perf_counter() + 0.05

    def sender(k: int) -> None:
        while True:
            with lock:
                i = state["next"]
                state["next"] += 1
                if i < len(stream):
                    state["waiting"].add(i)
            if i >= len(stream):
                break
            req = stream[i]
            due = t0 + req["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                state["waiting"].discard(i)
                state["inflight"] += 1
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=WAIT_S + 30)
            try:
                conn.request("POST", req["path"], body=req["body"],
                             headers=HEADERS)
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
            except (OSError, http.client.HTTPException) as exc:
                data, status = repr(exc).encode(), 0
            finally:
                conn.close()
            done = time.perf_counter()
            with lock:
                state["inflight"] -= 1
            busy[k] += done - sent
            results[i] = {"status": status, "data": data, "due": due,
                          "late": sent - due, "latency": done - due,
                          "done": done}

    def idle_for() -> float:
        """Seconds until the next request is due; 0 while one is in
        flight."""
        with lock:
            if state["inflight"]:
                return 0.0
            pending = list(state["waiting"])
            if state["next"] < len(stream):
                pending.append(state["next"])
        if not pending:
            return 0.0
        return t0 + min(stream[i]["due"] for i in pending) \
            - time.perf_counter()

    threads = [threading.Thread(target=sender, args=(k,), daemon=True)
               for k in range(senders)]
    for th in threads:
        th.start()
    last = 0.0
    while any(th.is_alive() for th in threads):
        now = time.perf_counter()
        if (echo is not None and now - last >= PROBE_EVERY_S
                and idle_for() >= PROBE_GAP_S):
            last = time.perf_counter()
            echo.probe()
            probes.append((last, time.perf_counter() - last))
        else:
            time.sleep(PROBE_POLL_S)
    for th in threads:
        th.join()
    end = max(r["done"] for r in results)
    wall = end - t0
    return {"results": results, "wall": wall, "probes": probes,
            "conn_busy_frac": sum(busy) / (senders * wall) if wall else 0.0}


# --------------------------------------------------------------------- #
# checks


def check_answers(stream: List[dict], results: List[dict]):
    """Per-request error lists and decoded answers.  Every answer must
    be a valid schedule of the requester's own problem whose re-evaluated
    objective matches the reported one; a repeat must also match its
    primary's objective."""
    from repro.service.codec import schedule_from_dict

    errors: List[List[str]] = []
    docs: List[Optional[dict]] = []
    for req, res in zip(stream, results):
        errs: List[str] = []
        doc = None
        if res["status"] != 200:
            errs.append(f"HTTP {res['status']}: {res['data'][:200]!r}")
        else:
            doc = json.loads(res["data"])
            if doc.get("state") != "done":
                errs.append(f"ticket {doc.get('state')}: {doc.get('error')}")
                doc = None
        if doc is not None:
            try:
                schedule = schedule_from_dict(doc["schedule"])
                errs += checks.schedule_errors(req["problem"], schedule,
                                               doc["objective"])
            except Exception as exc:  # noqa: BLE001
                errs.append(f"undecodable answer: {exc!r}")
            primary = req.get("primary")
            if req["kind"] == "repeat" and docs[primary] is not None:
                want = docs[primary]["objective"]
                if not checks.close(doc["objective"], want):
                    errs.append(f"repeat objective {doc['objective']!r} != "
                                f"primary {want!r}")
        docs.append(doc)
        errors.append(errs)
    return errors, docs


def reference_solves(stream: List[dict], docs: List[Optional[dict]]):
    """Solve every cold problem in-process with ``hastar``, closed loop:
    the reference for the cold answers' objectives, and the timing of
    ``solve_ms_*``.  Returns the objective ratios and the raw and
    adjusted solver times in ms."""
    from repro import run_solve

    ratios, raw, adjusted = [], [], []
    gc.collect()
    for req, doc in zip(stream, docs):
        if req["kind"] != "cold":
            continue
        with hostspeed.Timed() as timed:
            report = run_solve(req["problem"], "hastar")
        # The solver's own clock also ran through the probes.
        solve_ms = 1e3 * max(0.0, report.solve_seconds - timed.inside)
        raw.append(solve_ms)
        adjusted.append(solve_ms * timed.factor)
        if doc is not None:
            ratios.append(("hastar", doc["objective"] / report.objective))
    return ratios, raw, adjusted


# --------------------------------------------------------------------- #
# the workload


def _ladder(server: "Server", seed: int) -> Dict[str, float]:
    """Tail latency at each :data:`LADDER` rate, and ``service.slo_rps``:
    the highest rate whose tail meets :data:`SLO_TAIL_MS` without the
    generator falling behind (a growing backlog shows as requests leaving
    late).  The ladder stops at the first rate that misses."""
    out: Dict[str, float] = {"service.slo_rps": 0.0}
    for k, rate in enumerate(LADDER):
        # Each rung's cold problems are new to the store as well.
        stream = make_stream(f"{seed}-ladder-{rate:g}", rate, RUNG_S,
                             first=(k + 2) * 10**6)
        results = send_stream(server.host, server.port, stream)["results"]
        tail = latency_summary([1e3 * r["latency"] for r in results])["tail"]
        out[f"service.tail_ms.r{rate:g}"] = tail
        backlog = 1e3 * percentile([r["late"] for r in results], 90)
        if tail > SLO_TAIL_MS or backlog > SLO_TAIL_MS:
            break
        out["service.slo_rps"] = rate
    return out


def _serve(root, out_dir, env, seed, stream, spans_path=None,
           ladder=False):
    """Start a server, warm it up, send ``stream``; returns the timings,
    the server's ``/metrics``, its peak RSS and its start-up time."""
    with hostspeed.Around() as speed:
        server = Server(root, out_dir, env, spans_path=spans_path)
    echo = None
    try:
        # A probe carries the first cold request's body.
        echo = Echo(root, env, stream[0]["body"])
        # Warm-up problems come from far along the pool, so none of the
        # measured cold requests is already in the store.
        send_stream(server.host, server.port,
                    make_stream(f"{seed}-warm", RATE, WARMUP_S, first=10**6))
        sent = send_stream(server.host, server.port, stream, echo=echo)
        extra = _ladder(server, seed) if ladder else {}
        metrics = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        if echo is not None:
            echo.stop()
        server.stop()
    return {"sent": sent, "metrics": metrics, "rss": rss,
            "startup_s": server.startup_s * speed.factor, "ladder": extra}


def speed_factors(results: List[dict], probes: List[tuple]) -> List[float]:
    """Per request, :data:`REF_PROBE_RTT_S` over the median round trip
    of the idle-time probes sent within :data:`PROBE_WINDOW_S` of its due
    time (of all the run's probes when that window holds fewer than
    :data:`PROBE_MIN`)."""
    import bisect

    if not probes:
        return [1.0] * len(results)
    probes = sorted(probes)
    times = [t for t, _ in probes]
    overall = REF_PROBE_RTT_S / median([rtt for _, rtt in probes])
    out = []
    for r in results:
        lo = bisect.bisect_left(times, r["due"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, r["due"] + PROBE_WINDOW_S)
        near = [rtt for _, rtt in probes[lo:hi]]
        out.append(REF_PROBE_RTT_S / median(near)
                   if len(near) >= PROBE_MIN else overall)
    return out


def _latency_metrics(stream, results, adjust):
    """Latencies of all requests and of the deltas, in ms, each
    multiplied by its factor."""
    lat = [1e3 * r["latency"] * f for r, f in zip(results, adjust)]
    delta = [x for q, x in zip(stream, lat) if q["kind"] == "delta"]
    return lat, delta


def run(seed: int, seconds: float, trace: bool, root: str, out_dir: str,
        env: Dict[str, str], tiny: bool = False) -> Dict[str, object]:
    """Run ``service-open``.  Two throw-away server starts and the
    measured one give the start-up time; the traced run adds the ladder
    and a second, traced server fed the same stream."""
    stream = make_stream(seed, RATE, 1.0 if tiny else seconds)
    pin(0, CLIENT_CPU)
    startups = []
    for _ in range(STARTS - 1):
        with hostspeed.Around() as speed:
            server = Server(root, out_dir, env)
        startups.append(server.startup_s * speed.factor)
        server.stop()
    main = _serve(root, out_dir, env, seed, stream, ladder=trace and not tiny)
    startups.append(main["startup_s"])
    sent = main["sent"]
    results = sent["results"]
    errors, docs = check_answers(stream, results)
    ratios, raw_solve, solve_ms = reference_solves(stream, docs)
    solve = latency_summary(solve_ms or [0.0])
    attempted = len(stream)
    failed = sum(1 for e in errors if e)
    shed = sum(1 for d in docs if d is not None and d.get("shed"))
    probes = sent["probes"]
    raw = _latency_metrics(stream, results, [1.0] * len(results))
    lat, delta = _latency_metrics(stream, results,
                                  speed_factors(results, probes))
    req = latency_summary(lat)
    end_to_end = {
        "solve_ms_p50": solve["p50"],
        "solve_ms_tail": solve["tail"],
        "suite_s": sent["wall"],
        "objective_ratio": worst_mean(ratios) if ratios else 0.0,
        "req_ms_p50": req["p50"],
        "req_ms_tail": req["tail"],
        "delta_ms_p50": median(delta or [0.0]),
        "ok_frac": 1.0 - failed / attempted,
        "primary_frac": 1.0 - shed / attempted,
    }
    per: Dict[str, Optional[float]] = {}
    if trace:
        # The traced server gets the first half of the same stream; the
        # overhead compares it with the untraced answers to that half.
        half = max(1, len(stream) // 2)
        spans_path = os.path.join(out_dir, f"server-spans-s{seed}.jsonl")
        traced = _serve(root, out_dir, env, seed, stream[:half],
                        spans_path=spans_path)
        per = server_span_metrics(spans_path, traced["sent"])
        rates = traced["metrics"]["rates"]
        per["service.cache_hit_ratio"] = rates["cache_hit_rate"]
        per["service.coalesce_ratio"] = rates["coalesce_rate"]
        traced_p50 = median([r["latency"] for r in traced["sent"]["results"]])
        base_p50 = median([r["latency"] for r in results[:half]])
        per["trace.overhead_frac"] = traced_p50 / base_p50 - 1.0
        per.update(main["ladder"])
    per.update({
        "loadgen.late_ms_p99": percentile([1e3 * r["late"] for r in results],
                                          99),
        "loadgen.sent": attempted,
        "loadgen.conn_busy_frac": sent["conn_busy_frac"],
        "tail.percentile": req["tail_pct"],
        "tail.samples": req["n"],
        "error_frac": failed / attempted,
        "degraded_frac": shed / attempted,
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f"request {i} ({stream[i]['kind']}): {e}"
                     for i, errs in enumerate(errors) for e in errs][:20],
        "end_to_end": end_to_end,
        "server_rss_mb": main["rss"],
        "startups": startups,
        "per_layer": per,
        "info": {"requests": {k: sum(1 for q in stream if q["kind"] == k)
                              for k, _ in MIX},
                 "raw": {"req_ms_p50": latency_summary(raw[0])["p50"],
                         "req_ms_tail": latency_summary(raw[0])["tail"],
                         "solve_ms_p50": latency_summary(
                             raw_solve or [0.0])["p50"],
                         "solve_ms_tail": latency_summary(
                             raw_solve or [0.0])["tail"],
                         "delta_ms_p50": median(raw[1] or [0.0])},
                 "probes": len(probes),
                 "speed_factor": median(speed_factors(results, probes)),
                 "rate_rps": RATE, "tail_pct": req["tail_pct"],
                 "tail_samples": req["n"],
                 "server": main["metrics"]["requests"]},
    }


def server_span_metrics(path: str,
                        sent: Dict[str, object]) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the traced server's span aggregates."""
    rec = Recorder.read_aggregates(path)
    m = layers.span_metrics(rec)
    requests = rec.count("service.http")
    for metric, name in (("service.decode_ms", "service.decode"),
                         ("service.fingerprint_ms", "service.fingerprint"),
                         ("service.submit_ms", "service.submit"),
                         ("service.encode_ms", "service.encode")):
        m[metric] = layers.mean_ms(rec, name)
    m["store.lookup_us"] = layers.ratio(rec.total("store.lookup"),
                                        rec.count("store.lookup"), 1e6)
    m["store.record_us"] = layers.ratio(rec.total("store.record"),
                                        rec.count("store.record"), 1e6)
    m["service.fingerprints_per_req"] = layers.ratio(
        rec.count("service.fingerprint"), requests)
    m["service.queue_wait_ms"] = layers.ratio(
        rec.attr("service.wait", "queue_s"), rec.count("service.wait"), 1e3)
    m["service.http_self_ms"] = layers.ratio(rec.self_time("service.http"),
                                             requests, 1e3)
    docs = [json.loads(r["data"]) for r in sent["results"]
            if r["status"] == 200]
    deltas = [d for d in docs if "base_hit" in d]
    m["online.base_hit_ratio"] = layers.ratio(
        sum(1 for d in deltas if d["base_hit"]), len(deltas))
    return m
