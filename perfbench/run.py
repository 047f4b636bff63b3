"""smoa benchmark: one workload per process, end-to-end or per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Workloads: chain, descent, sweep, spectral (see perfbench/README.md).
``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics plus the tracing overhead. Readable lines come
first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
environment and span table included, is written to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import LAYERS, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = 1
SETUP_REPEATS = 3
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The ROADMAP's baseline readings, printed beside the same reading of a
# traced run of the workload they were measured on.
BASELINE = {
    ("descent", "trainer.us_per_step"): "73 us",
    ("chain", "capacity.save_witness_ms"): "2000-2500 ms",
    ("spectral", "spectrum.svd_ms@512x512"): "900-1000 ms",
}


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_environment() -> None:
    """Fix the BLAS thread count and, on AVX2 machines, OpenBLAS's kernel
    family. Must run before numpy loads. One kernel family on every host
    keeps floating-point results, and so the reference digests, equal."""
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    if "avx2" in cpu_flags():
        os.environ["OPENBLAS_CORETYPE"] = "Haswell"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE", "auto"),
    }


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing ``smoa.cli``, the cost every
    command line call pays before it does any work."""
    started = perf_counter()
    subprocess.run([sys.executable, "-c", "import smoa.cli"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - started


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with ten samples beyond it."""
    n = len(values)
    if n <= 20:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def describe_timing(values: list[float], unit: str) -> str:
    text = f"median of {len(values)}"
    tail = high_percentile(values)
    if tail is None:
        return text + "; too few samples for a percentile above the median"
    return text + f"; p{tail[0]} {tail[1]:.6g} {unit}"


def per_layer(spans, untraced: list[float], traced: list[float]) -> tuple[dict, dict, dict]:
    """Per-layer readings from the traced passes.

    Returns ``(gated, detail, table)``: ``gated`` holds the metrics every
    workload reports (BENCHMARK.json ``per_layer``), ``detail`` every
    layer reading of this workload, name -> (value, unit), and ``table``
    the per-label span statistics of the traced passes.
    """
    n = len(traced)
    table = aggregate(spans, {"pass"})
    everywhere = aggregate(spans, {"setup", "pass"})

    def per_pass(label, field, scale=1.0):
        entry = table.get(label)
        return scale * (entry[field] if entry else 0) / n

    gated = {}
    for module in ("spectrum", "preprocess", "capacity"):
        own = sum(e["self_s"] for label, e in table.items()
                  if label.startswith(module + ".") and "@" not in label)
        gated[f"{module}.self_ms"] = (1e3 * own / n, "ms")
    for label in ("spectrum.svd", "spectrum.singular_values"):
        gated[f"{label}_self_ms"] = (per_pass(label, "self_s", 1e3), "ms")
        gated[f"{label}_calls"] = (per_pass(label, "calls"), "count")
    for label in ("preprocess.build_plan", "capacity.make_witness"):
        gated[f"{label}_self_ms"] = (per_pass(label, "self_s", 1e3), "ms")
    gaussian = everywhere.get("gen.gaussian_matrix")
    gated["gen.gaussian_ms"] = (gaussian["median_ms"] if gaussian else 0.0, "ms")
    gated["trace.overhead_ms"] = (1e3 * (median(traced) - median(untraced)), "ms")

    detail = {}
    for label, entry in everywhere.items():
        if label.startswith("gen."):
            detail[f"gen.{label[4:].replace('_matrix', '')}_ms"] = (entry["median_ms"], "ms")
    for label, entry in table.items():
        if label.startswith("gen."):
            continue
        detail[label.replace("@", "_ms@") if "@" in label else f"{label}_ms"] = (entry["median_ms"], "ms")
    fit = table.get("trainer.fit")
    if fit:
        steps = sum(fit["extras"])
        detail["trainer.us_per_step"] = (1e6 * fit["incl_s"] / max(steps, 1), "us")
        detail["trainer.steps"] = (steps / n, "count")
        detail["trainer.fits"] = (fit["calls"] / n, "count")
    if "preprocess.save_plan" in table:
        detail["preprocess.plan_bytes"] = (median(table["preprocess.save_plan"]["extras"]), "bytes")
    if "matio.save_matrix" in table:
        detail["matio.bytes_written"] = (sum(table["matio.save_matrix"]["extras"]) / n, "bytes")
    detail["trace.untraced_pass_ms"] = (1e3 * median(untraced), "ms")
    detail["trace.traced_pass_ms"] = (1e3 * median(traced), "ms")
    return gated, detail, table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chain", "descent", "sweep", "spectral"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


@dataclass
class Measurement:
    setup_seconds: list[float] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    raws: list = field(default_factory=list)  # outputs of the untraced passes
    outcomes: list[tuple[str, bool, str]] = field(default_factory=list)


def measure(workload, tracer, null, seconds: float, trace: bool) -> Measurement:
    """Set up, warm up, then run passes until ``seconds`` have elapsed.

    Untraced set-ups are repeated and each includes a fresh interpreter
    import; with ``trace`` one set-up runs traced and every second pass
    is traced, so traced and untraced passes interleave.
    """
    m = Measurement()
    if trace:
        workload.tracer = tracer
        tracer.install()
        with tracer.span("setup"):
            workload.setup()
        tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            seconds_import = fresh_import_seconds()
            started = perf_counter()
            workload.setup()
            m.setup_seconds.append(seconds_import + perf_counter() - started)
    workload.tracer = null
    workload.prepare_checks()
    m.outcomes.extend(workload.warm_up())

    deadline = perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            workload.tracer = tracer
            tracer.install()
        started = perf_counter()
        raw = None
        try:
            with tracer.span("pass") if traced else null.span("pass"):
                raw = workload.run_pass(index)
        except Exception:  # a crashing pass is a failed operation; keep measuring
            m.outcomes.append(("pass", False, traceback.format_exc(limit=3)))
        elapsed = perf_counter() - started
        if traced:
            tracer.uninstall()
            workload.tracer = null
        (m.traced if traced else m.untraced).append(elapsed)
        if raw is not None:
            if not traced:
                m.raws.append(raw)
            try:
                m.outcomes.extend(workload.check(raw))
            except Exception:  # output the checks cannot read is a failure too
                m.outcomes.append(("check", False, traceback.format_exc(limit=3)))
        index += 1
        enough = m.untraced and (m.traced or not trace)
        if enough and perf_counter() >= deadline:
            return m


def report(args, env: dict, workload, m: Measurement, spans) -> dict:
    """Print the readable lines and write the record; return the result."""
    attempted = len(m.outcomes)
    failed = sum(1 for _, ok, _ in m.outcomes if not ok)
    readings = dict(workload.summary(m.raws, m.untraced)) if m.raws else {}
    readings["failed_ops_frac"] = (failed / attempted if attempted else 1.0, "fraction")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "passes": {"untraced": m.untraced, "traced": m.traced}}
    table = {}
    if args.trace:
        metrics, layers, table = per_layer(spans, m.untraced, m.traced)
        record["spans"] = [[s[0], s[1], s[2], s[3] - s[2], s[4]] for s in spans]
    else:
        layers = {}
        metrics = {
            "pass_s": (median(m.untraced), "s"),
            "setup_s": (median(m.setup_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def line(name, value, unit):
        baseline = BASELINE.get((args.workload, name))
        note = ""
        if name in ("pass_s", "chain_s", "descent_s", "spectral_s"):
            note = f"  ({describe_timing(m.untraced, unit)})"
        elif name == "setup_s":
            note = f"  (median of {len(m.setup_seconds)} set-ups)"
        if baseline:
            note += f"  (ROADMAP baseline {baseline})"
        return f"{name} = {value:.6g} {unit}{note}"

    lines = [
        f"# smoa benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# env: " + " ".join(f"{k}={json.dumps(v) if ' ' in str(v) else v}" for k, v in env.items()),
        f"# passes: {len(m.untraced)} untraced, {len(m.traced)} traced, after one warm-up",
        "# workload readings:",
        *(line(name, v, u) for name, (v, u) in readings.items()),
    ]
    if args.trace:
        lines.append("# layer readings (traced passes; inclusive median per call):")
        lines.extend(line(name, v, u) for name, (v, u) in layers.items())
        lines.append("# self time per traced pass: label, calls, self ms, inclusive ms")
        n = len(m.traced)
        for label, entry in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"self {label} = {entry['calls'] / n:.6g} calls, "
                         f"{1e3 * entry['self_s'] / n:.6g} ms, {1e3 * entry['incl_s'] / n:.6g} ms")
    lines.append(f"# failures: {failed} of {attempted} operations")
    for name, ok, detail in m.outcomes:
        if not ok:
            lines.append(f"#   FAILED {name}: {(detail.strip().splitlines() or [''])[-1]}")
    lines.append("# reported metrics:")
    lines.extend(line(name, v, u) for name, (v, u) in metrics.items())
    print("\n".join(lines))

    record["readings"] = {k: {"value": v, "unit": u} for k, (v, u) in {**readings, **layers}.items()}
    record["self_time"] = table
    record["failures"] = [(name, detail) for name, ok, detail in m.outcomes if not ok]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, separators=(",", ":"), default=str) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smoa" / "__init__.py").is_file():
        print(f"error: no smoa package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()

    import smoa.cli  # noqa: F401  (loads every layer module)
    import workloads
    from spans import NullTracer, Tracer

    env = environment()
    namespaces = [sys.modules[f"smoa.{name}"] for name in ("cli",) + LAYERS] + [workloads]
    tracer, null = Tracer(namespaces), NullTracer()
    work_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, null)
        m = measure(workload, tracer, null, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = report(args, env, workload, m, tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
