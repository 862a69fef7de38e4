"""Open-loop ``serve-mixed`` workload against a real ``repro serve``.

Independent users send requests on a Poisson schedule, whether or not
earlier answers have arrived, over one TCP connection to a
``repro serve --port 0`` subprocess.  Each request is timed from the
moment it was due, so a stall also charges the requests queued behind
it, and the generator's own lateness is reported and bounded.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import sys

from common import (
    CHECK_TOL, OUT, Child, check_answer, median, percentile, proc_cpu_s, proc_peak_rss_mb,
    python_argv, split_cpus,
)
from workloads import serve_plan

LIMIT_S = 0.100
#: Server starts timed per run for ``setup_s``; the last one serves.
SETUP_SAMPLES = 3
#: A run whose generator sent its 99th-percentile request later than
#: this after it was due did not offer the planned load; it is invalid.
MAX_LAG_P99_S = 0.025
MAX_LINE = 8 * 1024 * 1024
DRAIN_TIMEOUT_S = 60.0
SERVED_LINE = re.compile(r"\[served (\d+) request\(s\), (\d+) failed")


def _server_argv(trace_path) -> list[str]:
    if trace_path is None:
        return python_argv("-m", "repro.cli", "serve", "--port", "0")
    return python_argv("perfbench/serve_boot.py", str(trace_path), "--port", "0")


def start_server(trace_path=None) -> tuple[Child, int, float]:
    split = split_cpus()
    child = Child(_server_argv(trace_path), cpus=split[1] if split else None)
    try:
        ready_s, line = child.wait_line("serving on", timeout=120)
    except BaseException:
        child.proc.kill()
        child.finish(timeout=30)
        raise
    return child, int(line.rsplit(":", 1)[1]), ready_s


class Connection:
    """One newline-JSON connection; responses are matched by ``id``."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.sent = 0
        self.raw: list[tuple[float, bytes]] = []
        self._waiters: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE)
        return cls(reader, writer)

    async def _read(self) -> None:
        # During the open loop nobody waits on an answer, so lines are
        # only stamped and kept: parsing waits until the load is over,
        # keeping the generator's own work off the timed path.
        loop = asyncio.get_running_loop()
        while True:
            line = await self.reader.readline()
            if not line:
                break
            self.raw.append((loop.time(), line))
            if self._waiters:
                doc = json.loads(line)
                waiter = self._waiters.pop(int(doc.get("id", -1)), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(doc)

    def answers(self) -> dict[int, tuple[float, dict]]:
        """Every answer so far, by request id: ``(arrival time, document)``."""
        out = {}
        for stamp, line in self.raw:
            doc = json.loads(line)
            out[int(doc.get("id", -1))] = (stamp, doc)
        return out

    async def send(self, doc: dict) -> int:
        rid = self._next_id
        self._next_id += 1
        self.writer.write((json.dumps(dict(doc, id=rid)) + "\n").encode())
        self.sent += 1
        await self.writer.drain()
        return rid

    async def ask(self, doc: dict, timeout: float = 120.0) -> dict:
        """Send one request and wait for its answer (never while timing)."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[self._next_id] = waiter
        await self.send(doc)
        return await asyncio.wait_for(waiter, timeout)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


def _request_doc(doc: dict, hot: list[dict], hot_results: list[dict]) -> dict:
    if doc["op"] == "solve":
        return doc
    i = doc["hot"]
    out = {"op": doc["op"], "platform": hot[i]["platform"],
           "schedule": hot_results[i]["schedule"]}
    if doc["op"] == "certify":
        out["claims"] = {"claimed_peak": hot_results[i]["peak_theta"]}
    return out


async def _drive(port: int, plan: dict, pid: int) -> dict:
    """Prime the hot keys, run the open loop, fetch stats, shut down."""
    conn = await Connection.open(port)
    loop = asyncio.get_running_loop()
    try:
        hot_results = []
        for doc in plan["hot"]:
            answer = await conn.ask(doc)
            if not answer.get("ok") or answer.get("status") != "ok":
                raise RuntimeError(f"priming solve failed: {answer}")
            hot_results.append(answer["result"])
        requests = [
            (due, _request_doc(doc, plan["hot"], hot_results))
            for due, doc in plan["requests"]
        ]
        cpu0 = proc_cpu_s(pid)
        primed = len(conn.raw)
        t0 = loop.time() + 0.05
        sent: list[tuple[int, float, float, dict]] = []
        for due_rel, doc in requests:
            due = t0 + due_rel
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lag = loop.time() - due
            sent.append((await conn.send(doc), due, lag, doc))
        deadline = loop.time() + DRAIN_TIMEOUT_S
        while loop.time() < deadline and len(conn.raw) - primed < len(sent):
            await asyncio.sleep(0.005)
        t_end = loop.time()
        cpu1 = proc_cpu_s(pid)
        answers = conn.answers()
        stats = await conn.ask({"op": "stats"})
        rss_mb = proc_peak_rss_mb(pid)
        await conn.ask({"op": "shutdown"})
        return {
            "sent": sent, "answers": answers,
            "window": (t0, t_end), "server_cpu_s": cpu1 - cpu0,
            "stats": stats.get("stats", {}), "peak_rss_mb": rss_mb,
            "requests_sent": conn.sent,
        }
    finally:
        await conn.close()


class Checker:
    """Independent checks of served answers, memoized per input."""

    def __init__(self, repro) -> None:
        from repro.schedule.serialization import schedule_from_dict

        self.repro = repro
        self._from_dict = schedule_from_dict
        self._platforms: dict[str, object] = {}
        self._memo: dict[str, tuple] = {}

    def _platform(self, doc: dict):
        key = json.dumps(doc, sort_keys=True)
        if key not in self._platforms:
            self._platforms[key] = self.repro.load_platform(doc)
        return self._platforms[key]

    def _once(self, key_doc, compute):
        key = json.dumps(key_doc, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, request: dict, answer: dict | None) -> tuple:
        """``(ok, honest, safe_throughput, reason)``; the throughput is
        None unless the request is a solve."""
        op = request["op"]
        if answer is None or not answer.get("ok"):
            reason = "no response" if answer is None else f"error {answer.get('error')}"
            return False, True, (0.0 if op == "solve" else None), reason
        platform = self._platform(request["platform"])
        if op == "solve":
            if answer.get("status") == "infeasible":
                return True, True, 0.0, ""
            res = answer["result"]
            return self._once(res, lambda: check_answer(
                self.repro, request["solver"], platform,
                self._from_dict(res["schedule"]),
                res["peak_theta"], res["throughput"], res["feasible"],
            ))
        evaluation = self._once(
            [request["platform"], request["schedule"]],
            lambda: self.repro.evaluate(platform, self._from_dict(request["schedule"])),
        )
        if op == "evaluate":
            got = answer["evaluation"]
            ok = (
                abs(evaluation.peak_theta - got["peak_theta"]) <= CHECK_TOL
                and abs(evaluation.throughput - got["throughput"]) <= CHECK_TOL
            )
            return ok, ok, None, "" if ok else f"evaluation {got}, re-evaluated {evaluation}"
        # The certificate's peak is the worst of its routes, so it agrees
        # with the general route within the certificate's own tolerance;
        # its verdict must match whether the schedule is really safe.
        cert = answer["certificate"]
        safe = evaluation.peak_theta <= evaluation.theta_max + CHECK_TOL
        ok = (
            abs(cert["peak_theta"] - evaluation.peak_theta) <= cert["tolerance"]
            and bool(answer.get("accepted")) == safe
        )
        return ok, ok, None, "" if ok else f"certificate {cert}, re-evaluated {evaluation}"


def _one_server(repro, plan: dict, trace_path=None) -> dict:
    """Start a server and drive the plan at it.  The client keeps off
    the server's CPU, so the two never queue for one processor."""
    split = split_cpus()
    if split:
        os.sched_setaffinity(0, split[0])
    child, port, ready_s = start_server(trace_path)
    try:
        drive = asyncio.run(_drive(port, plan, child.proc.pid))
    except BaseException:
        child.proc.kill()
        raise
    finally:
        code = child.finish(timeout=60)
    drive["exit_code"] = code
    drive["ready_s"] = ready_s
    drive["served_line"] = next(
        (line for _, line in child.lines if line and SERVED_LINE.search(line)), None
    )
    return drive


def summarize(repro, drive: dict) -> dict:
    checker = Checker(repro)
    t0 = drive["window"][0]
    lags = []
    failed = met = 0
    dishonest = False
    throughputs = []
    stats_docs = []
    fallbacks = solves_with_result = 0
    failures: set[str] = set()
    latency_by_id: dict[int, float] = {}
    for rid, due, lag, doc in drive["sent"]:
        stamp, answer = drive["answers"].get(rid, (None, None))
        ok, honest, thr, reason = checker.check(doc, answer)
        if not ok:
            failures.add(f"{doc['op']} {doc.get('solver', '')}: {reason}")
        lags.append(lag)
        dishonest |= not honest
        failed += not ok
        if stamp is not None:
            latency_by_id[rid] = stamp - due
            met += ok and stamp - due <= LIMIT_S
        if thr is not None:
            throughputs.append(thr)
        if answer and answer.get("result"):
            solves_with_result += 1
            fallbacks += bool(answer["result"].get("details", {}).get("fallback"))
            if answer.get("stats"):
                stats_docs.append(answer["stats"])
    latencies = list(latency_by_id.values())
    attempted = len(drive["sent"])
    last_answer = max(drive["answers"][rid][0] for rid in latency_by_id)
    session = drive["stats"].get("session", {})
    coalescer = drive["stats"].get("coalescer", {})
    # Cross-check against the server's own exit line: every request the
    # client sent, and every failure it saw, must be counted there too.
    client_failures = sum(1 for _, answer in drive["answers"].values() if not answer.get("ok"))
    served = SERVED_LINE.search(drive["served_line"] or "")
    invalid = []
    if served is None or drive["exit_code"] != 0:
        invalid.append(f"server exit {drive['exit_code']} without a served line")
    elif (int(served[1]), int(served[2])) != (drive["requests_sent"], client_failures):
        invalid.append(
            f"server counted {served[1]} requests / {served[2]} failed, client "
            f"{drive['requests_sent']} / {client_failures}"
        )
    lag_p99 = percentile(lags, 99)
    if lag_p99 > MAX_LAG_P99_S:
        invalid.append(f"generator lag p99 {lag_p99 * 1e3:.1f} ms")
    return {
        "attempted": attempted,
        "failed": failed,
        "honest": not dishonest,
        "invalid": invalid,
        "failures": sorted(failures),
        "ops_per_s": len(latencies) / (last_answer - t0),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "limit_met_share": met / attempted,
        "ok_share": (attempted - failed) / attempted,
        "mean_safe_throughput": math.fsum(throughputs) / max(len(throughputs), 1),
        "peak_rss_mb": drive["peak_rss_mb"],
        "generator.lag_p99_ms": lag_p99 * 1e3,
        "generator.lag_max_ms": max(lags) * 1e3,
        "engine.eigen_misses": sum(s.get("eigen_cache_misses", 0) for s in stats_docs),
        "engine.expm_applications": sum(s.get("expm_applications", 0) for s in stats_docs),
        "engine.steady_state_solves": sum(s.get("steady_state_solves", 0) for s in stats_docs),
        "safety.fallback_share": fallbacks / max(solves_with_result, 1),
        "service.cache_hit_ratio": session.get("cache_hits", 0) / max(session.get("solve_requests", 0), 1),
        "service.coalesced_mean_batch": session.get("requests", 0) / max(coalescer.get("batches", 0), 1),
        "server_cpu_per_request_s": drive["server_cpu_s"] / attempted,
        "latencies": latency_by_id,
    }


async def _shutdown(port: int) -> None:
    conn = await Connection.open(port)
    try:
        await conn.ask({"op": "shutdown"})
    finally:
        await conn.close()


def run(repro, workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric.  Of the servers started
    for ``setup_s``, only the last one serves the load."""
    plan = serve_plan(seed, seconds)
    ready = []
    for _ in range(SETUP_SAMPLES - 1):
        child, port, ready_s = start_server()
        ready.append(ready_s)
        try:
            asyncio.run(_shutdown(port))
        finally:
            child.finish(timeout=60)
    drive = _one_server(repro, plan)
    ready.append(drive["ready_s"])
    summary = summarize(repro, drive)
    summary["setup_s"] = median(ready)
    return summary


def run_traced(repro, workload: str, seed: int, seconds: float, span_path) -> dict:
    """An untraced then a traced server: per-layer metrics and overhead."""
    from tracing import layer_metrics, write_span_file

    plan = serve_plan(seed, seconds)
    plain = summarize(repro, _one_server(repro, plan))
    trace_path = OUT / "serve-trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    drive = _one_server(repro, plan, trace_path)
    summary = summarize(repro, drive)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    write_span_file(span_path, trace["spans"], trace["program_spans"])
    layers = layer_metrics(trace["spans"], drive["window"])
    summary.update(layers)
    handle = {int(k): v for k, v in trace["handle_s"].items() if v is not None}
    handles = [handle[rid] for rid in summary["latencies"] if rid in handle]
    waits = [lat - handle[rid] for rid, lat in summary["latencies"].items() if rid in handle]
    if len(handles) < len(summary["latencies"]):
        print(f"[serve-mixed: {len(summary['latencies']) - len(handles)} request(s) "
              "without a matched handle time]", file=sys.stderr)
    summary["service.handle_ms_p50"] = percentile(handles, 50) * 1e3
    summary["service.handle_ms_p99"] = percentile(handles, 99) * 1e3
    summary["service.wait_ms_p99"] = percentile(waits, 99) * 1e3
    # The server idles between requests, so its share is taken of the
    # CPU time it spent, not of the wall time.
    summary["trace.unattributed_share"] = 1.0 - layers["root_cpu_s"] / drive["server_cpu_s"]
    summary["trace.overhead_share"] = (
        summary["server_cpu_per_request_s"] / plain["server_cpu_per_request_s"] - 1.0
    )
    return summary
