#!/usr/bin/env python3
"""obsmap benchmark: timed sweep/analyze workloads with output checks.

    python3 perfbench/run.py --workload phase_n500 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py        # every workload, each in a fresh process

Run from anywhere; the sources measured are the ``src/`` next to this
directory. A run warms up BLAS, repeats workload passes until --seconds have
elapsed, checks the outputs outside the timed region, times fresh-process
set-up, and prints the metrics named in BENCHMARK.json: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1 (which alternates untraced
and traced passes). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Outputs, spans and a full result
record with the environment go to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("phase_n500", "bucketwise_n2000", "analyze_n6000", "sweep_cli_jobs2")
REFERENCE_SEED = 0
SETUP_PROBES = 5
SETUP_PROBE = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; workloads.warm_up()"


@dataclass
class Pass:
    traced: bool
    rows: int
    wall_s: float
    cpu_s: float
    data: bytes
    kemp: list[str] | None
    sweep: object | None
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest RSS of this process or of any waited-for child (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _layer_metrics(tracer: Tracer, pass_: Pass) -> dict[str, float]:
    calls, self_ms, root_s = layer_totals(tracer.spans)
    out: dict[str, float] = {}
    for layer in dict.fromkeys(name for _, _, name, _ in LAYERS):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    graphs_built = calls.get("graphs.random_regular", 0)
    distinct = len(set(tracer.call_args["graphs.random_regular"]))
    out["spectral.solves_per_graph"] = (
        calls.get("spectral.low_frequency_basis", 0) / graphs_built if graphs_built else 0.0
    )
    out["harness.graphs_per_distinct_graph"] = graphs_built / distinct if distinct else 0.0
    for layer in ("observation.bucket_diagnostics", "spectral.codebook_size"):
        out[f"{layer}.calls_per_row"] = calls.get(layer, 0) / pass_.rows
    out["harness.write_csv.bytes"] = tracer.file_bytes["harness.write_csv"]
    out["trace.unattributed_ms"] = (pass_.wall_s - root_s) * 1000.0
    return out


def run_pass(workload, seed: int, csv_path: str, tracer: Tracer | None) -> Pass:
    if tracer is not None:
        tracer.clear()
        tracer.install()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        output = workload.run(seed, csv_path)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    with open(csv_path, "rb") as fh:
        data = fh.read()
    p = Pass(traced=tracer is not None, rows=output.rows, wall_s=wall, cpu_s=cpu, data=data,
             kemp=output.kemp, sweep=output.sweep)
    if tracer is not None:
        p.layers = _layer_metrics(tracer, p)
        p.spans = [list(s) for s in tracer.spans]
    return p


def check_outputs(name: str, seed: int, passes: list[Pass], csv_path: str) -> tuple[dict, int, int, int, int]:
    """Run every output check.

    Returns (checks, rows checked, rows failed, lines compared, lines mismatched).
    A check that raises counts as failed.
    """
    import workloads as wl
    from obsmap import harness

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    workload = wl.WORKLOADS[name]
    last = passes[-1]
    rows = wl.csv_rows(last.data)
    failed_rows = sum(not wl.row_ok(r) for r in rows) + max(0, workload.rows - len(rows))
    digests = wl.line_digests(last.data)
    bad_lines = set()
    bad_kemp = set()
    checks: dict[str, bool] = {}

    def attempt(check: str, fn) -> None:
        try:
            checks[check] = bool(fn())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks[check] = False

    attempt("section_attains_optimum", lambda: rows and wl.section_attains_optimum(name, seed, rows[-1]))

    def passes_identical() -> bool:
        for p in passes:
            bad_lines.update(wl.mismatched_lines(wl.line_digests(p.data), digests))
            if p.kemp is not None:
                bad_kemp.update(wl.mismatched_lines(p.kemp, last.kemp))
        return not bad_lines and not bad_kemp

    attempt("passes_identical", passes_identical)

    if seed == REFERENCE_SEED:
        def reference_csv() -> bool:
            bad = wl.mismatched_lines(digests, reference[workload.reference])
            bad_lines.update(bad)
            return not bad

        attempt("reference_csv", reference_csv)

    sweep = last.sweep
    if name == "sweep_cli_jobs2":
        def csv_independent_of_jobs() -> bool:
            nonlocal sweep
            serial_path = csv_path.replace(".csv", "-jobs1.csv")
            sweep = harness.run_sweep(wl.phase_config(seed), jobs=1)
            harness.write_csv(sweep, serial_path)
            with open(serial_path, "rb") as fh:
                bad = wl.mismatched_lines(digests, wl.line_digests(fh.read()))
            bad_lines.update(bad)
            return not bad

        attempt("csv_independent_of_jobs", csv_independent_of_jobs)

    if last.kemp is not None:
        def kemp_matches_k_emp() -> bool:
            bad = wl.kemp_disagreements(last.kemp, sweep)
            bad_kemp.update(bad)
            return bool(last.kemp) and not bad

        attempt("kemp_matches_k_emp", kemp_matches_k_emp)

        if seed == REFERENCE_SEED:
            def kemp_reference() -> bool:
                bad = wl.mismatched_lines(last.kemp, reference["kemp"][name])
                bad_kemp.update(bad)
                return not bad

            attempt("kemp_reference", kemp_reference)

    compared = max(len(digests), workload.rows + 1) + len(last.kemp or ())
    return (checks, max(len(rows), workload.rows), failed_rows, compared,
            len(bad_lines) + len(bad_kemp))


def setup_seconds() -> list[float]:
    """Fresh-process set-up: interpreter start, imports, one warm-up eigh."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC)],
            check=True, stdin=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def _blas_record() -> list[dict]:
    """Every loaded OpenBLAS: file, build config and thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry: dict = {"library": os.path.basename(path)}
        for key, restype, names in (
            ("threads", ctypes.c_int, ("scipy_openblas_get_num_threads64_",
                                       "scipy_openblas_get_num_threads",
                                       "openblas_get_num_threads64_",
                                       "openblas_get_num_threads")),
            ("config", ctypes.c_char_p, ("scipy_openblas_get_config64_",
                                         "scipy_openblas_get_config",
                                         "openblas_get_config64_",
                                         "openblas_get_config")),
        ):
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(entry)
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(name: str, seed: int) -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy
    import workloads

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "obsmap").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "warmup": workloads.WARMUP_POLICY,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    import obsmap
    if Path(obsmap.__file__).resolve().parent != SRC / "obsmap":
        print(f"error: imported obsmap from {obsmap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = str(OUT_DIR / f"{name}-seed{seed}.csv")
    workload = wl.WORKLOADS[name]
    tracer = Tracer() if trace else None

    wl.warm_up()
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, csv_path, None))
        if tracer is not None:
            passes.append(run_pass(workload, seed, csv_path, tracer))
    peak_rss_mb = _peak_rss_mb()

    checks, rows, failed_rows, compared, mismatched = check_outputs(name, seed, passes, csv_path)
    attempted = rows + len(checks)
    failed = failed_rows + sum(not ok for ok in checks.values())

    plain = [p for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        overheads = [t.wall_s - u.wall_s for u, t in zip(plain, traced)]
        values = {
            key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers
        }
        values["trace.overhead_s"] = statistics.median(overheads)
        wanted = spec["per_layer"]
        setup = []
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "passes": [p.spans for p in traced]}, fh)
    else:
        setup = setup_seconds()
        values = {
            "rows_per_s": statistics.median(p.rows / p.wall_s for p in plain),
            "cpu_ms_per_row": statistics.median(p.cpu_s * 1000.0 / p.rows for p in plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
            "pass_frac": 1.0 - failed / attempted,
            "rows_matched_frac": 1.0 - mismatched / compared,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(name, seed)
    record = {
        "environment": env,
        "checks": checks,
        "rows_checked": rows,
        "rows_failed": failed_rows,
        "fail_frac": failed / attempted,
        "rows_mismatched": mismatched,
        "lines_compared": compared,
        "passes": [{"traced": p.traced, "rows": p.rows, "wall_s": p.wall_s, "cpu_s": p.cpu_s}
                   for p in passes],
        "setup_s_samples": setup,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(plain)} untraced and {len(passes) - len(plain)} traced passes")
    for key, m in metrics.items():
        print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} rows and checks failed); "
          f"rows_mismatched {mismatched} of {compared} lines")
    for check, ok in checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; prints each one's metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited {done.returncode}")
            status = 1
            continue
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, each in a fresh process)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced passes")
    args = ap.parse_args(argv)
    if not (SRC / "obsmap" / "__init__.py").is_file():
        print(f"error: no obsmap sources at {SRC / 'obsmap'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
