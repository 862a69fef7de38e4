"""Traced server bootstrap.

``python perfbench/serve_boot.py <trace.json> [serve args...]`` installs
the per-layer wrappers, runs ``repro.cli.main(["serve", ...])`` exactly
as ``repro serve`` would, and on exit writes the spans it recorded
plus each request's handle time, keyed by request id, to ``trace.json``.

A request's handle time is the duration of the session call that
served it: ``SchedulerSession.solve`` for a solve (matched on its
arguments, since a batch may run several), or the ``evaluate_many`` /
``certify_many`` call of its batch.
"""

import json
import sys

from common import import_repro
from tracing import SERVICE_TARGETS, SOLVE_TARGETS, Recorder, install


def _solve_key(platform, solver, params, tolerance) -> str:
    return json.dumps([platform, str(solver), params or {}, tolerance], sort_keys=True)


def main(trace_path: str, serve_args: list[str]) -> int:
    repro = import_repro()
    from repro.cli import main as cli_main
    from repro.service.server import ScheduleServer
    from repro.service.session import SchedulerSession

    recorder = Recorder()
    install(recorder, SOLVE_TARGETS + SERVICE_TARGETS)
    solve_s: dict[str, float] = {}
    batch_s: dict[str, float] = {}
    handle_s: dict[str, float] = {}

    traced_solve = SchedulerSession.solve

    def solve(self, platform, solver, params=None, **kwargs):
        try:
            return traced_solve(self, platform, solver, params, **kwargs)
        finally:
            span = recorder.closed
            key = _solve_key(platform, solver, params, kwargs.get("certify_tolerance"))
            solve_s[key] = span[5] - span[4]

    def batched(op, traced):
        def call(self, *args, **kwargs):
            try:
                return traced(self, *args, **kwargs)
            finally:
                batch_s[op] = recorder.closed[5] - recorder.closed[4]

        return call

    SchedulerSession.solve = solve
    SchedulerSession.evaluate_many = batched("evaluate", SchedulerSession.evaluate_many)
    SchedulerSession.certify_many = batched("certify", SchedulerSession.certify_many)

    handle_request = ScheduleServer.handle_request

    async def handle(self, request):
        response = await handle_request(self, request)
        op = request.get("op")
        if "id" in request and op in ("solve", "evaluate", "certify"):
            if op == "solve":
                key = _solve_key(
                    request.get("platform") or {}, request.get("solver"),
                    request.get("params") or {}, request.get("tolerance"),
                )
                handle_s[str(request["id"])] = solve_s.get(key)
            else:
                handle_s[str(request["id"])] = batch_s.get(op)
        return response

    ScheduleServer.handle_request = handle
    with repro.capture_spans() as program_spans:
        code = cli_main(["serve", *serve_args])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({
            "spans": recorder.spans,
            "program_spans": [sp.as_dict() for sp in program_spans],
            "handle_s": handle_s,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
