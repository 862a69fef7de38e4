"""Paths, environment, process probes and statistics shared by the runners."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = BENCH_DIR / "out"

#: The CPUs this process may use, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0))

#: Agreement required between a returned number and the benchmark's
#: independent re-evaluation of the same schedule.
CHECK_TOL = 1e-6


def net_throughput(evaluation, schedule, tau: float) -> float:
    """Eq.-5 throughput net of DVFS clock-halt losses, re-derived here.

    ``repro.evaluate`` prices the raw eq.-5 throughput; solvers report
    it net of the paper's transition charge, ``tau * (v_high + v_low)``
    per period for every core that switches between modes.
    """
    volts = schedule.voltage_matrix
    charge = sum(
        tau * (volts[:, i].max() + volts[:, i].min())
        for i in range(schedule.n_cores)
        if np.unique(volts[:, i]).size >= 2
    )
    return evaluation.throughput - charge / (schedule.n_cores * schedule.period)


def check_answer(repro, solver, platform, schedule, peak, throughput, feasible):
    """Independent check of one solve answer.

    Returns ``(ok, honest, safe_throughput, reason)``.  The schedule is
    re-priced with ``repro.evaluate`` (general route); ``ok`` needs the
    returned peak and throughput to agree with that re-evaluation and
    the re-evaluated peak to respect the threshold.  ``honest`` is False
    only when a returned number or feasibility claim is wrong: an unsafe
    schedule reported as infeasible is honest but not ok.
    ``safe_throughput`` is the throughput of an ok answer, else 0.

    Closed-loop baselines (``integral``) return a summary of a simulated
    trace rather than a schedule to run, so there is nothing to
    re-price: their answer only has to state feasibility consistently
    with its peak.
    """
    theta_max = platform.theta_max
    if not repro.get_solver(solver).schedule_is_artifact:
        ok = bool(feasible) == (peak <= theta_max + CHECK_TOL)
        reason = "" if ok else f"feasible={feasible} but peak {peak:.6f} K vs {theta_max:.6f} K"
        return ok, ok, (throughput if ok and feasible else 0.0), reason
    ev = repro.evaluate(platform, schedule)
    net = net_throughput(ev, schedule, platform.overhead.tau)
    reasons = []
    if abs(ev.peak_theta - peak) > CHECK_TOL:
        reasons.append(f"peak {peak:.9f} K, re-evaluated {ev.peak_theta:.9f} K")
    if abs(net - throughput) > CHECK_TOL:
        reasons.append(f"throughput {throughput:.9f}, re-evaluated {net:.9f}")
    safe = ev.peak_theta <= ev.theta_max + CHECK_TOL
    if not safe:
        reasons.append(
            f"re-evaluated peak {ev.peak_theta:.4f} K exceeds theta_max "
            f"{ev.theta_max:.4f} K (reported feasible={feasible})"
        )
    ok = not reasons
    honest = len(reasons) == (0 if safe else 1) and (safe or not feasible)
    return ok, honest, (throughput if ok else 0.0), "; ".join(reasons)


def bench_env() -> dict[str, str]:
    """Environment for every process the benchmark runs.

    The eigenbasis cache's disk layer defaults to a directory under
    ``$TMPDIR``; it is switched off so that the benchmark writes nothing
    outside its checkout and no run sees another run's factorizations.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["REPRO_EIG_CACHE"] = "0"
    return env


def import_repro():
    """Import the program from ``src/`` under :func:`bench_env` settings."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
    env = bench_env()
    os.environ.clear()
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Child:
    """A child process whose stdout lines are collected by a thread.

    ``started`` is taken just before the spawn, so ``wait_line`` yields
    the wall time from a fresh interpreter to the line that says ready.
    """

    def __init__(self, argv: list[str], cpus: set[int] | None = None) -> None:
        self.lines: list[tuple[float, str]] = []
        self._cond = threading.Condition()
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=REPO, env=bench_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append((time.monotonic(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self.lines.append((time.monotonic(), None))
            self._cond.notify_all()

    def wait_line(self, prefix: str, timeout: float) -> tuple[float, str]:
        """``(seconds since spawn, line)`` of the first line with ``prefix``."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for stamp, line in self.lines[seen:]:
                    if line is None:
                        raise RuntimeError(f"child exited before {prefix!r}")
                    if line.startswith(prefix):
                        return stamp - self.started, line
                seen = len(self.lines)
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"no {prefix!r} line within {timeout} s")
                self._cond.wait(left)

    def finish(self, timeout: float) -> int:
        """Wait for exit (killing on timeout) and for the reader thread."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code


def split_cpus() -> tuple[set[int], set[int]] | None:
    """``(others, worker)`` CPU sets, or None on a single CPU.

    The process doing the measured work (the solve loop, or the server
    under test) runs alone on the last CPU; everything else, including
    a load generator, stays off it.  Without this the two share a
    processor at times, and on a 2-CPU machine that doubled the
    run-to-run spread of served latency.
    """
    if len(CPUS) < 2:
        return None
    return set(CPUS[:-1]), {CPUS[-1]}


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]
