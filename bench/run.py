"""adiabatic-lab benchmark.

Run from the repository root:

    python3 bench/run.py --workload open-sweep --seed 0 --seconds 15 --trace 0

Each workload pass makes its calls one at a time in this process, with
the package imported from ``src/``.  With ``--trace 0`` the run samples
set-up time in fresh interpreters, then repeats untraced passes until
``--seconds`` have elapsed, and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give the same numbers for people, plus the environment record.
Run records and spans go to ``bench/out/``.

Other modes:

    python3 bench/run.py --write-manifest   # rewrite BENCHMARK.json
    python3 bench/run.py --capture-refs     # rewrite bench/ref/ at seed 0
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from calib import CAL_REF_S, calibrate  # noqa: E402
from tracer import MODULES, WARNING_SOURCES, Tracer, expected_nonzero, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, REF_RTOL, WORKLOADS, CheckError, compare_to_reference  # noqa: E402

RUN_SECONDS = 30
SETUP_SAMPLES = 7
# The calibration kernel (calib.py) runs in the gaps before, between and
# after the calls of every pass, about CAL_PER_PASS times per pass, and
# CAL_PER_SETUP times in each fresh interpreter right after its imports.
# ``norm_wall_s`` and ``setup_s`` divide the mean measured time by the mean
# calibration time taken alongside it: the ratio of means follows the
# machine's speed changes (README, Noise).
CAL_PER_PASS = 12
CAL_PER_SETUP = 3
END_TO_END = (
    {"name": "norm_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)
WHY = {
    "open-sweep": "CLI deutsch and heat: Lindblad RK4, per-node fidelity, the heat ledger and the 4-thread sweep pool",
    "closed-sweep": "CLI adcheck, gate, lz-tqd, nmr-tqd, pulses plus NMR survival and eigenframe calls: the closed path only",
    "long-trajectory": "CLI battery-stirap and battery-cells: long single integrations, per-node ergotropy/power, CSV rendering",
    "liouville": "library xi/propagation/certificate and dual-route heat: superoperators and Liouvillian tracking, no CLI",
}
# Modules whose import a fresh process pays before the workload's first call.
SETUP_IMPORTS = {
    "open-sweep": ("adiabatic_lab.cli", "scipy.optimize", "scipy.linalg"),
    "closed-sweep": ("adiabatic_lab.cli", "scipy.optimize", "scipy.linalg"),
    "long-trajectory": ("adiabatic_lab.cli", "scipy.optimize", "scipy.linalg"),
    "liouville": ("adiabatic_lab.openad", "adiabatic_lab.thermo", "scipy.optimize", "scipy.linalg"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# environment


def _import_package(root: Path):
    src = root / "src"
    if not (src / "adiabatic_lab" / "__init__.py").is_file():
        raise BenchError(f"no adiabatic_lab package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import adiabatic_lab

    if Path(adiabatic_lab.__file__).resolve().parent != (src / "adiabatic_lab").resolve():
        raise BenchError(f"imported adiabatic_lab from {adiabatic_lab.__file__}, not from {src}")


def environment(root: Path) -> dict:
    import numpy
    import scipy

    commit = None
    if (root / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "adiabatic_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in (
            "ADIABATIC_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# passes


def _source_module(filename: str) -> str:
    path = Path(filename)
    if path.parent.name == "adiabatic_lab" and path.stem in MODULES:
        return path.stem
    return "other"


def run_pass(calls) -> dict:
    """One pass: each call timed on its own, warnings recorded per call.

    The calibration kernel runs in each gap before, between and after the
    calls, outside the calls' timed regions.
    """
    seconds, texts, errors = {}, {}, {}
    caught_by = Counter()
    per_gap = -(-CAL_PER_PASS // (len(calls) + 1))
    cal = [calibrate() for _ in range(per_gap)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                texts[call.name] = call.run()
            except Exception as exc:  # a failed call is counted, not fatal
                errors[call.name] = f"{type(exc).__name__}: {exc}"
            seconds[call.name] = time.perf_counter() - t0
        caught_by.update(_source_module(w.filename) for w in caught)
        cal += [calibrate() for _ in range(per_gap)]
    return {"wall_s": sum(seconds.values()), "cal_s": cal, "seconds": seconds, "texts": texts,
            "errors": errors, "warnings": dict(caught_by)}


def _load_refs(workload: str) -> dict:
    path = BENCH_DIR / "ref" / f"{workload}.json.gz"
    return json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))


def check_passes(calls, passes: list[dict], workload: str, seed: int) -> dict:
    """Check the first pass fully and every later pass against the first.

    Returns per-call problems plus the reference comparison at the
    default seed.
    """
    problems: dict[str, list[str]] = {c.name: [] for c in calls}
    first = passes[0]
    refs = _load_refs(workload) if seed == DEFAULT_SEED else None
    identical, worst_rel = 0, 0.0
    for call in calls:
        text = first["texts"].get(call.name)
        if text is None:
            continue
        try:
            call.check(text)
        except (CheckError, ValueError, KeyError, IndexError) as exc:
            problems[call.name].append(f"check: {exc}")
        if refs is not None:
            try:
                rel = compare_to_reference(text, refs[call.name])
            except CheckError as exc:
                problems[call.name].append(f"reference: {exc}")
                continue
            identical += rel == 0.0
            worst_rel = max(worst_rel, rel)
            if rel > REF_RTOL:
                problems[call.name].append(f"reference: relative difference {rel:.3e} > {REF_RTOL:.0e}")
    failures = []
    for k, p in enumerate(passes):
        for call in calls:
            issues = list(problems[call.name]) if k == 0 else []
            if call.name in p["errors"]:
                issues.append(p["errors"][call.name])
            elif k > 0 and p["texts"][call.name] != first["texts"].get(call.name):
                issues.append("output differs from the first pass")
            if issues:
                failures.append({"pass": k, "call": call.name, "problems": issues})
    out = {"attempted": len(passes) * len(calls), "failed": len(failures), "failures": failures}
    if refs is not None:
        out["reference"] = {"tables": len(calls), "byte_identical": identical, "max_rel_diff": worst_rel}
    return out


def measure_setup(root: Path, workload: str, samples: int) -> tuple[list[float], list[float]]:
    """Import time of the workload's modules in fresh interpreters.

    The benchmark's own import has already compiled the package and
    brought its files into the page cache, as an earlier CLI run would.
    Each interpreter then times the calibration kernel itself, on the CPU
    it ran its imports on.  Returns the import times and those calibration
    times.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "t0 = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in SETUP_IMPORTS[workload])
        + "t = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "from calib import calibrate\n"
        f"print(repr(t), *(repr(calibrate()) for _ in range({CAL_PER_SETUP})))\n"
    )
    times, cal = [], []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"fresh import failed: {proc.stderr.strip()}")
        t, *c = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(t)
        cal += c
    return times, cal


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _repeat(seconds: float, step, start: float | None = None) -> None:
    """Call ``step`` once, then again while one more call fits in ``seconds``
    counted from ``start`` (default: now)."""
    start = time.perf_counter() if start is None else start
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def run_timed(calls, args, root: Path) -> tuple[dict, dict]:
    """Set-up samples first, then untraced passes; both inside ``--seconds``."""
    start = time.perf_counter()
    setup, setup_cal = measure_setup(root, args.workload, SETUP_SAMPLES)
    passes, rss_mb = [], []

    def step():
        passes.append(run_pass(calls))
        if not rss_mb:
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    _repeat(args.seconds, step, start)
    checks = check_passes(calls, passes, args.workload, args.seed)
    walls = [p["wall_s"] for p in passes]
    cal = [c for p in passes for c in p["cal_s"]]
    metrics = {
        "norm_wall_s": {"value": statistics.fmean(walls) * CAL_REF_S / statistics.fmean(cal), "unit": "s"},
        "setup_s": {"value": statistics.fmean(setup) * CAL_REF_S / statistics.fmean(setup_cal), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb[0], "unit": "MB"},
    }
    record = {
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "wall_s_quartiles": _quartiles(walls),
        "cal_s": statistics.fmean(cal),
        "cal_s_samples": cal,
        "setup_s_raw": statistics.median(setup),
        "setup_s_raw_samples": setup,
        "setup_cal_s_samples": setup_cal,
        "call_median_s": {c.name: statistics.median(p["seconds"][c.name] for p in passes) for c in calls},
        "warnings": passes[0]["warnings"],
        "checks": checks,
    }
    return metrics, record


def _counts(calls, p: dict) -> dict:
    """Every counter of a traced pass: wrapper counts, output bytes, warnings."""
    counts = {k: v for k, v in p["layers"].items() if not k.endswith(".self_s")}
    counts["cli.main.bytes_out"] = sum(len(p["texts"].get(c.name, "").encode("utf-8"))
                                       for c in calls if c.argv)
    counts.update({f"{m}.warnings": p["warnings"].get(m, 0) for m in WARNING_SOURCES})
    return counts


def run_traced(calls, args, root: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced, span_passes = [], [], []

    def step():
        plain.append(run_pass(calls))
        tracer.install()
        try:
            p = run_pass(calls)
        finally:
            spans = tracer.uninstall()
        p["layers"] = tracer.summarize(spans)
        traced.append(p)
        span_passes.append(spans)

    _repeat(args.seconds, step)
    checks = check_passes(calls, plain + traced, args.workload, args.seed)

    counts = _counts(calls, traced[0])
    unstable = sorted({k for p in traced[1:] for k, v in _counts(calls, p).items() if v != counts[k]})
    nonzero, zero = expected_nonzero(args.workload)
    violations = [f"{k} is 0, predicted non-zero" for k in sorted(nonzero) if counts[k] == 0]
    violations += [f"{k} is {counts[k]}, predicted 0" for k in sorted(zero) if counts[k] != 0]
    violations += [f"{k} differs between traced passes" for k in unstable]
    # the counter predictions form one more check, counted like a call
    checks["attempted"] += 1
    if violations:
        checks["failures"].append({"pass": None, "call": "trace", "problems": violations})
        checks["failed"] += 1

    values = dict(counts)
    for key in traced[0]["layers"]:
        if key.endswith(".self_s"):
            values[key] = statistics.median(p["layers"][key] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall

    units = {m["name"]: m["unit"] for m in layer_metrics()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    spans_path = root / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path, span_passes)
    record = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "spans": {"file": str(spans_path.relative_to(root)), "count": sum(map(len, span_passes))},
        "violations": violations,
        "checks": checks,
    }
    return metrics, record


# ---------------------------------------------------------------------------
# manifest and references


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": layer_metrics(),
    }


def check_manifest(root: Path) -> None:
    path = root / "BENCHMARK.json"
    if path.is_file() and json.loads(path.read_text()) != manifest():
        raise BenchError("BENCHMARK.json differs from bench/run.py; run --write-manifest")


def capture_refs() -> None:
    from workloads import build

    for workload in WORKLOADS:
        calls = build(workload, DEFAULT_SEED)
        p = run_pass(calls)
        if p["errors"]:
            raise BenchError(f"{workload}: {p['errors']}")
        data = json.dumps(p["texts"], indent=0, sort_keys=True).encode("utf-8")
        (BENCH_DIR / "ref").mkdir(exist_ok=True)
        (BENCH_DIR / "ref" / f"{workload}.json.gz").write_bytes(gzip.compress(data, 9, mtime=0))
        print(f"{workload}: {len(p['texts'])} tables")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--capture-refs", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    try:
        if args.write_manifest:
            (root / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
            return 0
        _import_package(root)
        if args.capture_refs:
            capture_refs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        check_manifest(root)
        from workloads import build

        env = environment(root)
        calls = build(args.workload, args.seed)
        runner = run_traced if args.trace else run_timed
        metrics, record = runner(calls, args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = record["checks"]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=env, metrics=metrics)
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for f in checks["failures"]:
        print(f"FAILED pass={f['pass']} call={f['call']}: {'; '.join(f['problems'])}", file=sys.stderr)
    if "reference" in checks:
        ref = checks["reference"]
        print(f"reference: {ref['byte_identical']} of {ref['tables']} tables byte-identical, "
              f"max relative difference {ref['max_rel_diff']:.3e}")
    print(f"failed_ratio = {checks['failed'] / checks['attempted']:.6g} "
          f"({checks['failed']} of {checks['attempted']} calls)")
    if not args.trace:
        print(f"wall_s = {record['wall_s']!r} s (raw median of {record['passes']} passes), "
              f"setup_s raw = {record['setup_s_raw']!r} s (median of {SETUP_SAMPLES}), "
              f"calibration = {record['cal_s']:.4g} s (mean of {len(record['cal_s_samples'])}, "
              f"reference {CAL_REF_S} s)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
              "failed": checks["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
