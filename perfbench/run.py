"""axonsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
run sets up, repeats the workload's operation for S seconds (at least
twice), checks every output against the science contract (``contract.py``)
and prints one line per metric, then a JSON result as the last line.
``--workload all`` runs every workload in turn, each in its own process,
and ends with one JSON object of their results.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
operations for S seconds and then one untraced operation, and reports the
per-layer metrics.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported: every workload is
# serial, and on a 2-core box extra threads only add scheduler noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import solve_banded  # noqa: E402

import contract  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 7
MIN_OPS = 2
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# A fresh interpreter up to a built configuration: what every command pays.
SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import axonsim, axonsim.cli
from axonsim.harness import RunConfig
RunConfig.from_dict(json.loads(sys.argv[2])).build()
print("ready", flush=True)
"""

# Host speed.  The shared host this benchmark was built on changes speed by
# a third over minutes, far more than the bounds a regression gate needs.
# So a fixed kernel, made of the program's kind of work (a scipy banded
# solve on the mesh size, small numpy reductions, float formatting) and
# independent of the program, is timed before the first operation and after
# each one, for at least a tenth of the operation's time, and every timing
# is scaled by REFERENCE_CALIBRATION_S over the mean of the two
# calibrations around it: times read as seconds on a host where
# CALIBRATION_ROUNDS rounds of the kernel take REFERENCE_CALIBRATION_S.
# The raw times are printed as well.
CALIBRATION_ROUNDS = 1500
CALIBRATION_BLOCK = 100
CALIBRATION_SHARE = 0.1
REFERENCE_CALIBRATION_S = 0.09
_CAL_BANDS = np.zeros((3, 199))
_CAL_BANDS[0, 1:] = _CAL_BANDS[2, :-1] = -1.0
_CAL_BANDS[1] = 4.0
_CAL_RHS = np.sin(np.linspace(0.0, 3.0, 199))


def calibrate(min_seconds: float = 0.0) -> float:
    """Seconds per CALIBRATION_ROUNDS rounds of the fixed kernel, timed now
    over at least CALIBRATION_ROUNDS rounds and ``min_seconds``."""
    rounds = 0
    t0 = perf_counter()
    while True:
        for _ in range(CALIBRATION_BLOCK):
            x = solve_banded((1, 1), _CAL_BANDS, _CAL_RHS)
            float(np.where(x > 0.1, x, 0.0).sum())
            ",".join([repr(float(v)) for v in x[:8]])
        rounds += CALIBRATION_BLOCK
        elapsed = perf_counter() - t0
        if rounds >= CALIBRATION_ROUNDS and elapsed >= min_seconds:
            return elapsed * CALIBRATION_ROUNDS / rounds


# (name, unit, kind, source labels or counter, label that must be traced)
# kind: calls / s / self_s sum span totals, counter reads an exact count.
LAYER_METRICS = (
    ("grid.riesz_solve.calls", "count", "calls", ["grid.riesz_solve"], None),
    ("grid.riesz_solve.s", "s", "s", ["grid.riesz_solve"], None),
    ("grid.norm.calls", "count", "calls", ["grid.norm"], None),
    ("grid.norm.s", "s", "s", ["grid.norm"], None),
    ("kinetics.rate.calls", "count", "calls", ["kinetics.rate"], None),
    ("kinetics.rate.s", "s", "s", ["kinetics.rate"], None),
    ("kinetics.rate.stochastic.calls", "count", "counter",
     "kinetics.rate.stochastic.calls", "kinetics.rate.stochastic"),
    ("kinetics.rate.decomposition.calls", "count", "counter",
     "kinetics.rate.decomposition.calls", "kinetics.rate.decomposition"),
    ("kinetics.rate.deterministic.calls", "count", "counter",
     "kinetics.rate.deterministic.calls", "kinetics.rate.deterministic"),
    ("deterministic.run_det.s", "s", "s", ["deterministic.run_det"], None),
    ("deterministic.cn_solve.calls", "count", "calls", ["deterministic.cn_solve"], None),
    ("deterministic.cn_solve.s", "s", "s", ["deterministic.cn_solve"], None),
    ("deterministic.write_csv.s", "s", "s", ["deterministic.write_csv"], None),
    ("deterministic.write_csv.bytes", "bytes", "counter",
     "deterministic.write_csv.bytes", "deterministic.write_csv"),
    ("stochastic.run_stoch.s", "s", "s", ["stochastic.run_stoch"], None),
    ("stochastic.run_stoch.self_s", "s", "self_s", ["stochastic.run_stoch"], None),
    ("stochastic.pde_solve.calls", "count", "calls", ["stochastic.pde_solve"], None),
    ("stochastic.pde_solve.s", "s", "s", ["stochastic.pde_solve"], None),
    ("stochastic.channels", "count", "counter", "stochastic.channels",
     "stochastic.run_stoch"),
    ("stochastic.substeps", "count", "counter", "stochastic.substeps",
     "stochastic.run_stoch"),
    ("stochastic.jumps", "count", "counter", "stochastic.jumps", "stochastic.run_stoch"),
    ("stochastic.max_jumps_per_substep", "count", "counter",
     "stochastic.max_jumps_per_substep", "stochastic.run_stoch"),
    ("stochastic.history_bytes", "bytes", "counter", "stochastic.history_bytes",
     "stochastic.run_stoch"),
    ("stochastic.write_csv.s", "s", "s", ["stochastic.write_csv"], None),
    ("stochastic.write_csv.bytes", "bytes", "counter", "stochastic.write_csv.bytes",
     "stochastic.write_csv"),
    ("decomposition.scan_path.calls", "count", "calls",
     ["decomposition.scan_path.series", "decomposition.scan_path.final"],
     "decomposition.scan_path"),
    ("decomposition.scan_path.series_s", "s", "s", ["decomposition.scan_path.series"],
     "decomposition.scan_path"),
    ("decomposition.scan_path.final_s", "s", "s", ["decomposition.scan_path.final"],
     "decomposition.scan_path"),
    ("decomposition.martingale_norm_series.s", "s", "s",
     ["decomposition.martingale_norm_series"], None),
    ("harness.run_reference.s", "s", "s", ["harness.run_reference"], None),
    ("harness.run_replicate.s", "s", "s", ["harness.run_replicate"], None),
    ("harness.deviation_metrics.s", "s", "s", ["harness.deviation_metrics"], None),
    ("harness.deviation_metrics.self_s", "s", "self_s", ["harness.deviation_metrics"],
     None),
    ("harness.results_io.s", "s", "s", ["harness.results_io"], None),
    ("cli.main.s", "s", "s", ["cli.main"], None),
    ("cli.main.self_s", "s", "self_s", ["cli.main"], None),
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def load_program():
    """Import axonsim from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "axonsim" / "__init__.py").is_file():
        raise BenchError(f"no axonsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import axonsim

    if Path(axonsim.__file__).resolve().parent != SRC / "axonsim":
        raise BenchError(f"axonsim imported from {axonsim.__file__}, not {SRC}")


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(config: dict) -> tuple[list[float], list[float]]:
    """(raw, scaled) seconds from spawning a fresh interpreter to a built config."""
    raw, scales = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(config)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up child failed with exit code {code}")
        after = calibrate()
        raw.append(elapsed)
        scales.append(2.0 * REFERENCE_CALIBRATION_S / (before + after))
        before = after
    return raw, [t * s for t, s in zip(raw, scales)]


def run_ops(workload, cfg, seed: int, seconds: float, out_dirs, tracer=None,
            min_ops: int = MIN_OPS) -> list:
    """Repeat the operation for ``seconds`` (and at least ``min_ops`` times).

    The first successful operation writes into ``out_dirs[0]``, which is
    kept for the output check; later ones overwrite ``out_dirs[1]``.  Each
    operation gets the host-speed scale of the calibrations around it.
    """
    from workloads import Op

    ops = []
    before = calibrate(CALIBRATION_SHARE * seconds)
    started = perf_counter()
    while len(ops) < min_ops or perf_counter() - started < seconds:
        op_started = perf_counter()
        ok_before = any(op.error is None for op in ops)
        out = out_dirs[1] if ok_before else out_dirs[0]
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.begin_op()
        try:
            op = workload.run(cfg, seed, out)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            op = Op(wall_s=math.nan, items=workload.items(cfg), samples={},
                    error=f"{type(exc).__name__}: {exc}")
        if tracer is not None:
            op.trace = tracer.end_op()
        after = calibrate(CALIBRATION_SHARE * (perf_counter() - op_started))
        op.scale = 2.0 * REFERENCE_CALIBRATION_S / (before + after)
        before = after
        ops.append(op)
    return ops


def run_traced(workload, cfg, seed: int, seconds: float, out_dirs,
               min_ops: int = MIN_OPS):
    """(tracer, operations) with every target wrapped, originals restored after."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        return tracer, run_ops(workload, cfg, seed, seconds, out_dirs, tracer, min_ops)
    finally:
        tracer.restore()


def check_outputs(workload, cfg, ops, out_dir, reference, traced: bool):
    """(attempted, failed, problems) over all operations of a run."""
    ok = [op for op in ops if op.error is None]
    attempted = sum(len(op.items) for op in ops)
    failed = sum(len(op.items) for op in ops if op.error is not None)
    problems: dict = {}
    if ok:
        digests = {op.digest for op in ok}
        if len(digests) > 1:
            raise BenchError("operations on one seed produced different outputs: "
                             "the program is not deterministic")
        first = ok[0]
        captured = next((op.trace["captured"] for op in ok if op.trace), [])
        try:
            record, problems = workload.collect(cfg, first, out_dir, captured)
            problems = contract.merge(
                problems, workload.check(cfg, record, reference, traced))
        except Exception as exc:  # unreadable outputs fail the operation
            traceback.print_exc(file=sys.stderr)
            problems = {contract.SHARED: [f"outputs unreadable: {type(exc).__name__}: {exc}"]}
        failed += len(ok) * len(contract.failed_items(first.items, problems))
    return attempted, failed, problems


def exact_counts(trace: dict) -> dict:
    counts = {label: v["calls"] for label, v in trace["spans"].items()}
    counts.update(trace["counters"])
    return counts


def tail(values: list[float]):
    """(percentile, value): the highest listed percentile with >= 10 samples above."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def end_to_end(ops, setup_raw, setup_scaled, peak_rss_mb) -> tuple[dict, dict, list]:
    ok = [op for op in ops if op.error is None]
    if not ok:
        raise BenchError("every operation failed")
    raw: dict[str, list[float]] = {"wall": [op.wall_s for op in ok]}
    scaled: dict[str, list[float]] = {"wall": [op.wall_s * op.scale for op in ok]}
    for op in ok:
        for key, values in op.samples.items():
            raw.setdefault(key, []).extend(values)
            scaled.setdefault(key, []).extend(v * op.scale for v in values)
    reps = scaled["replicate_ms"]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (statistics.median(scaled["wall"]), "s"),
        "replicate_p50_ms": (statistics.median(reps), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s median of {len(setup_scaled)} fresh interpreters",
        f"wall_s median of {len(ok)} operations",
        f"replicate_p50_ms median of {len(reps)} replicates",
        "times are scaled to host speed; raw.* are as measured, "
        f"host.speed = {REFERENCE_CALIBRATION_S} s / calibration time",
    ]
    extra = {"replicates_per_s": (len(reps) / (sum(reps) / 1e3), "1/s")}
    p, value = tail(reps)
    if p is None:
        notes.append(f"replicate_tail_ms n/a: {len(reps)} replicates, "
                     "fewer than 10 beyond p50")
    else:
        extra["replicate_tail_ms"] = (value, "ms")
        notes.append(f"replicate_tail_ms is p{p} of {len(reps)} replicates")
    for key in ("reference_s", "det_cmd_s", "stoch_cmd_s"):
        if key in scaled:
            extra[key] = (statistics.median(scaled[key]), "s")
            notes.append(f"{key} median of {len(scaled[key])}")
    extra["raw.setup_s"] = (statistics.median(setup_raw), "s")
    extra["raw.wall_s"] = (statistics.median(raw["wall"]), "s")
    extra["raw.replicate_p50_ms"] = (statistics.median(raw["replicate_ms"]), "ms")
    extra["host.speed"] = (statistics.median(op.scale for op in ok), "ratio")
    return metrics, extra, notes


def per_layer(tracer, baseline, traced) -> tuple[dict, list]:
    ok = [op for op in traced if op.error is None]
    if not ok or baseline.error is not None:
        raise BenchError("no successful traced and untraced operation to compare")
    counts = exact_counts(ok[0].trace)
    for op in ok[1:]:
        if exact_counts(op.trace) != counts:
            raise BenchError("exact counts differ between operations on one seed")
    metrics, absent = {}, []
    for name, unit, kind, source, needs in LAYER_METRICS:
        if (needs or source[0]) not in tracer.present:
            absent.append(name)
        if kind == "counter":
            value = ok[0].trace["counters"].get(source, 0)
        elif kind == "calls":
            value = sum(ok[0].trace["spans"].get(label, {}).get(kind, 0)
                        for label in source)
        else:
            value = statistics.median(
                op.scale * sum(op.trace["spans"].get(label, {}).get(kind, 0)
                               for label in source)
                for op in ok)
        metrics[name] = (value, unit)
    wall = statistics.median(op.wall_s * op.scale for op in ok)
    metrics["trace.overhead_frac"] = (wall / (baseline.wall_s * baseline.scale) - 1.0,
                                      "ratio")
    metrics["trace.uncovered_frac"] = (statistics.median(
        1.0 - op.trace["top_level_s"] / (op.busy_s or op.wall_s) for op in ok), "ratio")
    return metrics, absent


def write_spans(tracer, path: Path) -> None:
    np.savez_compressed(path, labels=np.array(tracer.labels, dtype=str),
                        label=np.array(tracer.label), start=np.array(tracer.start),
                        end=np.array(tracer.end), parent=np.array(tracer.parent))


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        ok = proc.returncode == 0 and bool(lines)
        for line in lines[:-1] if ok else lines:
            print(f"{name}: {line}", flush=True)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if ok else None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        cfg = workload.build_config(args.seed)
        reference = (contract.load_reference(workload.name)
                     if args.seed == contract.DEFAULT_SEED else None)
        work = WORK / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        out_dirs = (work / "op0", work / "op")
        env = environment()
        report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "env": env}

        if args.trace:
            tracer, traced = run_traced(workload, cfg, args.seed, args.seconds, out_dirs)
            # the untraced baseline runs last, with caches as warm as the
            # traced operations had them
            baseline = run_ops(workload, cfg, args.seed, 0, out_dirs[1:] * 2,
                               min_ops=1)[0]
            ops = traced + [baseline]
            metrics, absent = per_layer(tracer, baseline, traced)
            notes = [f"{len(traced)} traced operations, then 1 untraced",
                     "absent: " + (", ".join(absent) or "none")]
            extra = {}
            write_spans(tracer, work / "spans.npz")
        else:
            setup_raw, setup_scaled = measure_setup(workload.config(args.seed))
            ops = run_ops(workload, cfg, args.seed, args.seconds, out_dirs)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, extra, notes = end_to_end(ops, setup_raw, setup_scaled, peak_rss_mb)

        attempted, failed, problems = check_outputs(
            workload, cfg, ops, out_dirs[0], reference, bool(args.trace))
        extra["failed_frac"] = (failed / attempted, "ratio")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for out in ("op0", "op"):
            shutil.rmtree(WORK / args.workload / out, ignore_errors=True)

    check_kind = ("reference outputs and invariants" if reference is not None
                  else "invariants")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"run workload={workload.name} seed={args.seed} trace={args.trace} "
          f"operations={len(ops)} check={check_kind}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"metric {name} {value:.6g} {unit}")
    for note in notes:
        print(f"note {note}")
    for item, found in sorted(problems.items()):
        for problem in found:
            print(f"problem {item}: {problem}")
    print(f"check {attempted - failed}/{attempted} operations pass ({check_kind})")

    report.update(metrics=metrics, extra=extra, notes=notes, problems=problems,
                  attempted=attempted, failed=failed)
    with open(work / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
