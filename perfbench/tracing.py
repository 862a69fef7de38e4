"""Per-layer tracing from outside the program.

The benchmark records one span around every call into a layer's public
functions by replacing them, for the duration of a traced run, with
thin wrappers; nothing in ``src/`` changes.  A span is ``[id, parent,
layer, name, start, end, n, family, cpu]``: ``n`` is the work the call
was handed (batch candidates, grid rows), ``cpu`` the process CPU time
of a root span.  Times come from ``time.monotonic``, which on Linux is
the same clock in every process, so server-side spans line up with
client-side request times.

Layers are this repository's modules: ``platforms``, ``thermal``,
``schedule``, ``algorithms``, ``safety`` and ``service``.  ``engine``
has no wrapper; its counters come from the ``EngineStats`` each result
carries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

clock = time.monotonic

LAYERS = ("platforms", "thermal", "schedule", "algorithms", "safety", "service")


def _count_first(args, kwargs) -> int:
    items = args[0] if args else next(iter(kwargs.values()), ())
    return len(items) if hasattr(items, "__len__") else 0


def _count_second(args, kwargs) -> int:
    return _count_first(args[1:], kwargs)


def _solver_name(args, kwargs) -> str:
    return f"algorithms.{args[0].name}"


#: ``(module, qualname, layer, family, name_fn, count_fn)``.  ``family``
#: groups spans whose outermost instances make one metric (a
#: ``steady_state_cores`` call that calls ``steady_state`` is one
#: steady-state call).  A span is named ``<family>.<function>`` unless
#: ``name_fn`` names it from the call's arguments.
SOLVE_TARGETS = (
    ("repro.platforms", "PlatformSpec.build", "platforms", "platforms.build", None, None),
    ("repro.thermal.model", "ThermalModel.steady_state", "thermal", "thermal.steady_state", None, None),
    ("repro.thermal.model", "ThermalModel.steady_state_cores", "thermal", "thermal.steady_state", None, None),
    ("repro.thermal.model", "ThermalModel.steady_state_batch", "thermal", "thermal.steady_state", None, None),
    ("repro.thermal.model", "ThermalModel.steady_state_many", "thermal", "thermal.steady_state", None, None),
    ("repro.engine", "ThermalEngine.stepup_peak_batch", "thermal", "thermal.batch", None, _count_second),
    ("repro.engine", "ThermalEngine.general_peak_batch", "thermal", "thermal.batch", None, _count_second),
    ("repro.engine", "ThermalEngine.periodic_steady_state_batch", "thermal", "thermal.batch", None, _count_second),
    ("repro.thermal.grid", "peak_temperature_grid", "thermal", "thermal.grid", None, _count_first),
    ("repro.safety.certificate", "certify_grid", "thermal", "thermal.grid", None, _count_first),
    ("repro.schedule.periodic", "PeriodicSchedule.__init__", "schedule", "schedule", None, None),
    ("repro.schedule.builders", "from_core_timelines", "schedule", "schedule", None, None),
    ("repro.schedule.builders", "constant_schedule", "schedule", "schedule", None, None),
    ("repro.schedule.builders", "two_mode_schedule", "schedule", "schedule", None, None),
    ("repro.schedule.builders", "phase_schedule", "schedule", "schedule", None, None),
    ("repro.schedule.transforms", "step_up", "schedule", "schedule", None, None),
    ("repro.schedule.transforms", "m_oscillate", "schedule", "schedule", None, None),
    ("repro.schedule.transforms", "m_oscillate_core", "schedule", "schedule", None, None),
    ("repro.schedule.transforms", "shift_core", "schedule", "schedule", None, None),
    ("repro.schedule.transforms", "merge_adjacent", "schedule", "schedule", None, None),
    ("repro.algorithms.registry", "SolverSpec.solve", "algorithms", "algorithms", _solver_name, None),
    ("repro.safety.certificate", "certify", "safety", "safety.certify", None, None),
    ("repro.safety.fallback", "run_fallback_hop", "safety", "safety.fallback", None, None),
)

#: The service layer, wrapped only inside the server process.
SERVICE_TARGETS = (
    ("repro.service.session", "SchedulerSession.solve", "service", "service.session", None, None),
    ("repro.service.session", "SchedulerSession.evaluate_many", "service", "service.session", None, _count_second),
    ("repro.service.session", "SchedulerSession.certify_many", "service", "service.session", None, _count_second),
    ("repro.schedule.serialization", "result_to_dict", "service", "service.encode", None, None),
)


class Recorder:
    """Collects spans in memory; the call stack gives each its parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: The span that closed last: after a wrapped call returns, its own.
        self.closed: list | None = None

    def call(self, layer, family, name, n, fn, args, kwargs):
        sid = len(self.spans)
        root = not self._stack
        rec = [sid, self._stack[-1] if self._stack else -1, layer, name, 0.0, 0.0, n, family, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        cpu = time.process_time() if root else 0.0
        rec[4] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = clock()
            if root:
                rec[8] = time.process_time() - cpu
            self._stack.pop()
            self.closed = rec


def _wrap(recorder: Recorder, fn, layer, family, name, name_fn, count_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name_fn(args, kwargs) if name_fn else name
        n = count_fn(args, kwargs) if count_fn else 0
        return recorder.call(layer, family, label, n, fn, args, kwargs)

    return wrapper


def install(recorder: Recorder, targets) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    A method is replaced on its class.  A function is replaced in every
    loaded ``repro`` module that holds a reference to it, so callers
    that imported it by name see the wrapper too.
    """
    undo: list[tuple] = []
    for modname, qualname, layer, family, name_fn, count_fn in targets:
        module = importlib.import_module(modname)
        owner_name, _, attr = qualname.rpartition(".")
        name = f"{family}.{attr}"
        if owner_name:
            owner = getattr(module, owner_name)
            fn = inspect.getattr_static(owner, attr)
            wrapped = _wrap(recorder, fn, layer, family, name, name_fn, count_fn)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(recorder, fn, layer, family, name, name_fn, count_fn)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def write_span_file(path: Path, spans: list[list], program_spans=()) -> None:
    """One JSON line per span: the benchmark's wrappers, then the
    program's own spans (``repro.obs``), tagged by ``source``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, layer, name, start, end, n, _family, _cpu in spans:
            fh.write(json.dumps({
                "source": "bench", "id": sid,
                "parent": parent if parent >= 0 else None,
                "layer": layer, "name": name,
                "start": start, "end": end, "n": n,
            }) + "\n")
        for sp in program_spans:
            doc = sp.as_dict() if hasattr(sp, "as_dict") else dict(sp)
            fh.write(json.dumps({"source": "program", **doc}, default=str) + "\n")


def layer_metrics(spans: list[list], window: tuple[float, float]) -> dict[str, float]:
    """Per-layer counts and times from the spans that start in ``window``.

    ``<family>_ms`` sums the outermost span of each family (inclusive
    time); ``<layer>.self_ms`` sums every span's duration minus that of
    its direct children; ``unattributed_s`` is the part of the window no
    root span covers, and ``root_cpu_s`` the CPU time root spans used.
    """
    lo, hi = window
    kept = [s for s in spans if lo <= s[4] <= hi and s[5] > 0.0]
    by_id = {s[0]: s for s in kept}
    child_s: dict[int, float] = {}
    for s in kept:
        if s[1] in by_id:
            child_s[s[1]] = child_s.get(s[1], 0.0) + (s[5] - s[4])

    def outer(s) -> bool:
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[7] == s[7]:
                return False
            parent = by_id.get(parent[1])
        return True

    out: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_ms = {layer: 0.0 for layer in LAYERS}
    solver_self: dict[str, float] = {}
    built = 0
    root_s = root_cpu_s = 0.0
    for s in kept:
        dur = s[5] - s[4]
        own = dur - child_s.get(s[0], 0.0)
        self_ms[s[2]] += own * 1e3
        if s[3] == "schedule.__init__":
            built += 1
        if s[7] == "algorithms":
            solver_self[s[3]] = solver_self.get(s[3], 0.0) + own * 1e3
        if s[1] not in by_id:
            root_s += dur
            root_cpu_s += s[8]
        if outer(s):
            calls[s[7]] = calls.get(s[7], 0) + 1
            work[s[7]] = work.get(s[7], 0) + s[6]
            incl[s[7]] = incl.get(s[7], 0.0) + dur * 1e3
    out["platforms.build_calls"] = calls.get("platforms.build", 0)
    out["platforms.build_ms"] = incl.get("platforms.build", 0.0)
    out["thermal.steady_state_calls"] = calls.get("thermal.steady_state", 0)
    out["thermal.steady_state_ms"] = incl.get("thermal.steady_state", 0.0)
    out["thermal.batch_calls"] = calls.get("thermal.batch", 0)
    out["thermal.batch_candidates"] = work.get("thermal.batch", 0)
    out["thermal.batch_ms"] = incl.get("thermal.batch", 0.0)
    out["thermal.grid_rows"] = work.get("thermal.grid", 0)
    out["thermal.grid_ms"] = incl.get("thermal.grid", 0.0)
    out["schedule.built"] = built
    out["schedule.build_ms"] = incl.get("schedule", 0.0)
    for solver in ("LNS", "EXS", "AO", "PCO", "dark"):
        out[f"algorithms.{solver}.self_ms"] = solver_self.get(f"algorithms.{solver}", 0.0)
    out["safety.certify_calls"] = calls.get("safety.certify", 0)
    out["safety.certify_ms"] = incl.get("safety.certify", 0.0)
    out["service.encode_ms"] = incl.get("service.encode", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer]
    out["unattributed_s"] = max(hi - lo, 0.0) - root_s
    out["root_s"] = root_s
    out["root_cpu_s"] = root_cpu_s
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """``python -X importtime`` output -> the three import metrics (ms).

    ``import.repro_ms`` is the cumulative time of ``import repro``;
    ``import.repro_self_ms`` sums the self time of every ``repro.*``
    module (the repository's own module bodies);
    ``import.scipy_ms`` sums the self time of every ``scipy.*`` module.
    """
    repro_cum = repro_self = scipy_self = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        package = name.strip()
        if package == "repro":
            repro_cum = float(cum_us) / 1e3
        if package == "repro" or package.startswith("repro."):
            repro_self += float(self_us) / 1e3
        if package == "scipy" or package.startswith("scipy."):
            scipy_self += float(self_us) / 1e3
    return {
        "import.repro_ms": repro_cum,
        "import.repro_self_ms": repro_self,
        "import.scipy_ms": scipy_self,
    }
