"""Per-layer tracing from outside the package.

While installed, every traced public function is replaced, in every
``adiabatic_lab`` module namespace that binds it, by a wrapper that
records one span ``(thread id, function index, start ns, end ns, count)``
in an in-memory list.  ``Schedule.at`` is patched on the class.  Nothing
under ``src/`` changes.

Self time is a span's duration minus the union of its child spans.
Spans of one thread nest strictly (wrappers are synchronous), so the
union is the sum of the direct children, found per thread with a stack;
the CLI pool's worker threads therefore never subtract from the main
thread's waiting time, and overlapping workers are not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("opalg", "dynamics", "spectral", "adcheck", "openad", "thermo", "tqd", "battery", "cli")
W_OPEN, W_CLOSED, W_LONG, W_LIOU = "open-sweep", "closed-sweep", "long-trajectory", "liouville"
CLI_WORKLOADS = (W_OPEN, W_CLOSED, W_LONG)


def _steps(args, kwargs) -> int:
    times = kwargs.get("times", args[2] if len(args) > 2 else ())
    return len(times) - 1


def _has_basis(args, kwargs) -> int:
    basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
    return int(basis is not None)


# (module, dotted name, workloads on which it is called, extra counter).
# Every other workload must make zero calls.  An extra counter is
# (name, function of the call's arguments, workloads where it is
# non-zero); the values are summed into ``<module>.<name>.<counter>``.
TRACED = (
    ("dynamics", "rk4", (W_OPEN, W_CLOSED, W_LONG, W_LIOU), ("steps", _steps, (W_OPEN, W_CLOSED, W_LONG, W_LIOU))),
    ("dynamics", "Schedule.at", (W_OPEN, W_CLOSED, W_LONG, W_LIOU), None),
    ("dynamics", "lindblad_action", (W_OPEN, W_LONG, W_LIOU), None),
    ("dynamics", "evolve_lindblad", (W_OPEN, W_LONG, W_LIOU), None),
    ("dynamics", "evolve_unitary", (W_CLOSED, W_LONG), None),
    ("dynamics", "fidelity", (W_OPEN,), None),
    ("battery", "ergotropy", (W_LONG,), None),
    ("battery", "power_operator", (W_LONG,), None),
    ("battery", "stirap_charge", (W_LONG,), None),
    ("battery", "two_cell_discharge", (W_LONG,), None),
    ("thermo", "dephasing_heat_scenario", (W_OPEN, W_LIOU), None),
    ("thermo", "build_ledger", (W_OPEN, W_LIOU), None),
    ("thermo", "entropy_rate", (W_OPEN, W_LIOU), None),
    ("thermo", "heat_rate", (W_OPEN, W_LIOU), ("dual_route", _has_basis, (W_LIOU,))),
    ("openad", "deutsch_scenario", (W_OPEN,), None),
    ("openad", "track_liouville_spectrum", (W_LIOU,), None),
    ("openad", "superoperator_at", (W_LIOU,), None),
    ("openad", "xi_coefficients", (W_LIOU,), None),
    ("openad", "adiabatic_propagate_1d", (W_LIOU,), None),
    ("openad", "asymptotic_adiabaticity_certificate", (W_LIOU,), None),
    ("opalg", "superoperator_matrix", (W_LIOU,), None),
    ("opalg", "to_coherence_vector", (W_LIOU,), None),
    ("spectral", "tracked_eigensystem", (W_CLOSED,), None),
    ("spectral", "frame_from_functions", (W_CLOSED,), None),
    ("spectral", "fourth_order_derivative", (W_OPEN, W_CLOSED, W_LONG, W_LIOU), None),
    ("adcheck", "c_trad", (W_CLOSED,), None),
    ("adcheck", "c_tong", (W_CLOSED,), None),
    ("adcheck", "c_wu", (W_CLOSED,), None),
    ("adcheck", "c_ar", (W_CLOSED,), None),
    ("adcheck", "nmr_rotating_frame", (W_CLOSED,), None),
    ("adcheck", "oscillating_noninertial", (W_CLOSED,), None),
    ("tqd", "gate_run", (W_CLOSED,), None),
    ("tqd", "controlled_gate_schedule", (W_CLOSED,), None),
    ("tqd", "lz_intensities", (W_CLOSED,), None),
    ("tqd", "nmr_tqd_field_norms", (W_CLOSED,), None),
    ("tqd", "compile_pulse_sequence", (W_CLOSED,), None),
    ("cli", "main", CLI_WORKLOADS, None),
)

WARNING_SOURCES = MODULES + ("other",)


def layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for module, name, _, extra in TRACED:
        out.append({"name": f"{module}.{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{module}.{name}.self_s", "unit": "s", "better": "lower"})
        if extra:
            better = "higher" if extra[0] == "dual_route" else "lower"
            out.append({"name": f"{module}.{name}.{extra[0]}", "unit": "count", "better": better})
    # counted by the harness from the captured CLI output
    out.append({"name": "cli.main.bytes_out", "unit": "bytes", "better": "lower"})
    for module in WARNING_SOURCES:
        out.append({"name": f"{module}.warnings", "unit": "count", "better": "lower"})
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return out


def expected_nonzero(workload: str) -> tuple[set, set]:
    """(counters predicted non-zero, counters predicted zero) on ``workload``."""
    nonzero, zero = set(), set()
    counters = [(f"{m}.{n}.calls", where) for m, n, where, _ in TRACED]
    counters += [(f"{m}.{n}.{extra[0]}", extra[2]) for m, n, _, extra in TRACED if extra]
    counters.append(("cli.main.bytes_out", CLI_WORKLOADS))
    for name, where in counters:
        (nonzero if workload in where else zero).add(name)
    return nonzero, zero


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.names = [f"{m}.{n}" for m, n, _, _ in TRACED]
        self.spans: list[tuple] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"adiabatic_lab.{m}") for m in MODULES]
        spans = self.spans
        clock, ident = time.perf_counter_ns, threading.get_ident
        for index, (module, name, _, extra) in enumerate(TRACED):
            home = importlib.import_module(f"adiabatic_lab.{module}")
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, index, extra, spans, clock, ident))
                continue
            original = getattr(home, name)
            wrapper = self._wrap(original, index, extra, spans, clock, ident)
            bound = [(mod, key) for mod in modules for key, val in vars(mod).items() if val is original]
            for mod, key in bound:
                self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    @staticmethod
    def _wrap(fn, index, extra, spans, clock, ident):
        if extra is None:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.append((ident(), index, t0, clock(), 0))
        else:
            count = extra[1]

            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.append((ident(), index, t0, clock(), count(args, kwargs)))
        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> list[tuple]:
        """Restore the originals and hand over the spans recorded so far."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        spans, self.spans = self.spans, []
        return spans

    def summarize(self, spans: list[tuple]) -> dict:
        """Calls, self seconds and extra counts per traced function."""
        calls = [0] * len(TRACED)
        self_ns = [0] * len(TRACED)
        extra = [0] * len(TRACED)
        by_thread = defaultdict(list)
        for span in spans:
            by_thread[span[0]].append(span)
        for thread_spans in by_thread.values():
            thread_spans.sort(key=lambda s: (s[2], -s[3]))
            stack: list[list] = []  # [end, index, duration, child time]
            for _, index, t0, t1, n in thread_spans:
                while stack and stack[-1][0] <= t0:
                    end, idx, dur, child = stack.pop()
                    self_ns[idx] += dur - child
                if stack:
                    stack[-1][3] += t1 - t0
                stack.append([t1, index, t1 - t0, 0])
                calls[index] += 1
                extra[index] += n
            for end, idx, dur, child in stack:
                self_ns[idx] += dur - child
        out = {}
        for index, (module, name, _, ext) in enumerate(TRACED):
            key = f"{module}.{name}"
            out[f"{key}.calls"] = calls[index]
            out[f"{key}.self_s"] = self_ns[index] * 1e-9
            if ext:
                out[f"{key}.{ext[0]}"] = extra[index]
        return out

    def write(self, path: Path, passes: list[list[tuple]]) -> None:
        """Write the spans of every traced pass as gzipped tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("pass\tthread\tfunction\tstart_ns\tend_ns\tcount\n")
            for k, spans in enumerate(passes):
                for tid, index, t0, t1, n in spans:
                    fh.write(f"{k}\t{tid}\t{self.names[index]}\t{t0}\t{t1}\t{n}\n")
