"""gibbslab benchmark: end-to-end metrics with tracing off, per-layer metrics traced.

Run from the root of a gibbslab checkout:

    python3 perfbench/run.py --workload small_trials --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in a fresh process

The calling convention for one measured run is
``--workload W --seed N --seconds S --trace 0|1``; ``--seconds`` is the
measuring window and defaults to run_seconds of BENCHMARK.json.
Each workload runs in one process as a closed loop: the next operation
starts when the previous one has finished and been checked.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; details, and the spans of a traced run, go under
perfbench/out/.  perfbench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from spans import NullTracer, Tracer, empty_span_us, tail

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve()
OUT_DIR = RUN_PY.parent / "out"
WORKLOADS = ("small_trials", "acceptance")

# The load is one process on a 2-core machine; one BLAS thread keeps every
# comparison on the same footing and the tiny matrix products free of thread hand-off.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# imports and builds of the space and its loss table per run; setup_s adds their medians
SETUP_SAMPLES = 7
# a cold import in a fresh interpreter, as the benchmark's own process makes it
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import workloads
print(time.perf_counter() - start)
"""
# cache sizes of the reference machine (2 cores with 2 MiB of L2 each, one shared L3)
L2_BYTES = 2 * 2 * 2**20
L3_BYTES = 300 * 2**20

# per-layer timings: span name, then the unit it is reported in
TIMED_LAYERS = (
    ("model.build_space", "s"),
    ("model.loss_matrix", "s"),
    ("model.sample_dataset", "us"),
    ("model.empirical", "us"),
    ("gibbs.posterior", "us"),
    ("gibbs.sample_hypothesis", "us"),
    ("gibbs.complexity", "us"),
    ("monotone.normalize_density", "us"),
    ("bounds.rhs", "us"),
    ("measures.binary_kl", "us"),
    ("harness.derive_seed_pair", "us"),
    ("harness.write_result", "ms"),
    *((f"acceptance.criterion_{k:02d}", "s") for k in range(1, 13)),
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


@dataclass
class Record:
    op: object
    seconds: float | None  # None when the operation raised
    ref_seconds: float  # the reference job, timed just before the operation
    problems: list
    verdict: str

    @property
    def refs(self) -> float:
        """Wall time in reference units: the operation's time over the reference job's."""
        return self.seconds / self.ref_seconds


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "gibbslab" / "__init__.py").is_file():
        print(f"perfbench: no gibbslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, here and in children
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(_manifest()["run_seconds"])
    return args


def _timed_setup(name: str, seed: int, tracer):
    """Time to reach the first operation: import gibbslab, then build the space and its loss table.

    Each is timed SETUP_SAMPLES times and setup_s adds the two medians.  A
    single cold import varies by a third from run to run, nearly all of it
    noise, so the import of this process is one sample and fresh interpreters
    give the others.
    """
    start = time.perf_counter()
    import workloads  # imports gibbslab, and numpy with it, inside the timed region

    import_s = [time.perf_counter() - start]
    for _ in range(SETUP_SAMPLES - 1):
        probe = [sys.executable, "-c", IMPORT_PROBE, str(RUN_PY.parent), str(ROOT / "src")]
        import_s.append(float(subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60).stdout))
    workload = workloads.make_workload(name, seed)
    build_s = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        prepared = workloads.setup(workload, tracer)
        build_s.append(time.perf_counter() - start)
    samples = {"import_s": import_s, "build_s": build_s}
    return statistics.median(import_s) + statistics.median(build_s), samples, workload, prepared


def _run_workload(args) -> int:
    tracer = Tracer() if args.trace else NullTracer()
    setup_s, setup_samples, workload, prepared = _timed_setup(args.workload, args.seed, tracer)
    import gibbslab
    import workloads

    if not Path(gibbslab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported gibbslab from {gibbslab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    run_dir = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(run_dir)  # criterion 11 writes its reports into a temporary directory
    checker = workloads.Checker(workload, prepared, tracer)
    started = time.perf_counter()
    records, passes = _measure(workload, checker, run_dir, tracer, args.seconds)
    wall_s = time.perf_counter() - started

    if not passes:
        print("perfbench: no pass completed without an operation raising; no result", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if r.problems)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "ops": len(records),
        "passes": len(passes),
        "wall_s": wall_s,
        "verdicts": {v: sum(r.verdict == v for r in records) for v in ("pass", "uncertified", "fail", "error")},
        "replays_checked": checker.replays,
        "problems": [p for r in records for p in r.problems][:20],
        "op_seconds": [[r.op.index, r.seconds, r.ref_seconds, r.verdict] for r in records],
        "setup_samples": setup_samples,
    }
    if args.trace:
        metrics = _per_layer_metrics(tracer, records, checker, prepared)
        tracer.write(run_dir / "spans.jsonl")
        self_by_name = tracer.self_seconds_by_name()
        detail["self_s_p50"] = {name: statistics.median(v) for name, v in sorted(self_by_name.items())}
    else:
        metrics, detail["tail_percentiles"] = _end_to_end_metrics(records, passes, setup_s, workload.pass_size)
        detail["wall"] = _wall_seconds(records, passes, workload.pass_size)
    if prepared is not None:
        detail["loss_table"] = {
            "bytes_computed": prepared.matrix.nbytes,
            "over_l2": prepared.matrix.nbytes / L2_BYTES,
            "over_l3": prepared.matrix.nbytes / L3_BYTES,
        }

    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail["result"] = result
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    _print_report(detail, result)
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _measure(workload, checker, run_dir: Path, tracer, seconds: float):
    """Closed loop over whole passes until the measuring time is spent.

    Returns every record, and the passes in which no operation raised.
    """
    import reference  # imports numpy: only after the BLAS pin and the timed set-up
    import workloads

    records, passes = [], []
    start = time.perf_counter()
    index = 0
    while True:
        current = []
        for slot in range(workload.pass_size):
            op = workload.op(index)
            tracer.op = index
            report = run_dir / f"op{slot}.csv"
            ref_seconds = reference.timed_job()
            try:
                seconds_op, result = workloads.run_op(op, report, tracer)
            except Exception:
                current.append(Record(op, None, ref_seconds, [traceback.format_exc()], "error"))
            else:
                try:
                    problems, verdict = checker.check(op, result, report)
                except Exception:
                    problems, verdict = [traceback.format_exc()], "error"
                current.append(Record(op, seconds_op, ref_seconds, problems, verdict))
            index += 1
        records += current
        if all(r.seconds is not None for r in current):
            passes.append(current)
        if time.perf_counter() - start >= seconds:
            return records, passes


def _end_to_end_metrics(records, passes, setup_s: float, pass_size: int):
    """The end-to-end metrics; every timing is in reference units (see reference.py)."""
    timings, kinds = _timings(records, passes, pass_size, lambda r: r.refs)
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": setup_s,
        "trials_per_ref": timings["trials_per"],
        "op_ref_p50": timings["op_p50"],
        "op_ref_tail": timings["op_tail"],
        "pass_ref": timings["pass"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(records) - failed) / len(records),
    }
    return metrics, kinds


def _wall_seconds(records, passes, pass_size: int) -> dict:
    """The same timings in wall seconds, which carry the host's drift; printed, not compared."""
    timings, _ = _timings(records, passes, pass_size, lambda r: r.seconds)
    return {
        "reference_job_s_p50": statistics.median(r.ref_seconds for r in records),
        "trials_per_s": timings["trials_per"],
        "op_s_p50": timings["op_p50"],
        "pass_s": timings["pass"],
    }


def _timings(records, passes, pass_size: int, time_of):
    """Trials per unit of time, the per-kind median and tail of one operation, and the median pass.

    Also returns the tail percentile and the sample count of each kind.
    """
    timed = [r for r in records if r.seconds is not None]
    by_slot = defaultdict(list)
    for r in timed:
        by_slot[r.op.index % pass_size].append(time_of(r))
    trial_ops = [r for r in timed if r.op.trials]
    # each operation kind counts once; a statistic over a pool of unlike kinds
    # falls in the gap between two kinds and jumps between them as the number
    # of passes changes
    kind_tails = [tail(v) for v in by_slot.values()]
    timings = {
        "trials_per": sum(r.op.trials for r in trial_ops) / sum(time_of(r) for r in trial_ops),
        "op_p50": statistics.median(statistics.median(v) for v in by_slot.values()),
        "op_tail": statistics.median(value for value, _ in kind_tails),
        "pass": statistics.median(sum(time_of(r) for r in p) for p in passes),
    }
    return timings, [{"percentile": pct, "samples": len(v)} for (_, pct), v in zip(kind_tails, by_slot.values())]


def _per_layer_metrics(tracer, records, checker, prepared) -> dict:
    by_name = tracer.self_seconds_by_name()
    metrics = {}
    for span_name, unit in TIMED_LAYERS:
        values = [v * SCALE[unit] for v in by_name.get(span_name, [])]
        key = f"{span_name}_{unit}"
        metrics[f"{key}.p50"] = statistics.median(values) if values else 0.0
        metrics[f"{key}.tail"] = tail(values)[0] if values else 0.0
        metrics[f"{key}.calls"] = len(values)
    for name, values in checker.counts.items():
        metrics[name] = statistics.median(values) if values else 0
    metrics["model.loss_matrix_cells"] = prepared.matrix.size if prepared is not None else 0
    metrics["model.loss_table_bytes"] = prepared.matrix.nbytes if prepared is not None else 0
    metrics["harness.self_us_per_trial"] = _harness_self_us_per_trial(tracer, records, by_name)
    metrics["trace.empty_span_us"] = empty_span_us()
    return metrics


def _harness_self_us_per_trial(tracer, records, by_name) -> float:
    """Median over checked operations of the harness time per trial left after the layers.

    Per operation: run_experiment time less one space rebuild, per trial,
    minus the summed layer time per replayed trial.
    """
    rebuild = sum(statistics.median(by_name[n]) for n in ("model.build_space", "model.loss_matrix") if n in by_name)
    trials = {r.op.index: r.op.trials for r in records}
    run_s = {}
    layers = defaultdict(lambda: [0.0, 0])
    for span, self_ns in zip(tracer.spans, tracer.self_ns()):
        if span.name == "harness.run_experiment":
            run_s[span.op] = (span.end_ns - span.start_ns) / 1e9
        elif span.name == "bench.replay":
            layers[span.op][0] += (span.end_ns - span.start_ns - self_ns) / 1e9
            layers[span.op][1] += 1
    values = [
        ((run_s[op] - rebuild) / trials[op] - layer_s / replays) * 1e6
        for op, (layer_s, replays) in layers.items()
        if op in run_s
    ]
    return statistics.median(values) if values else 0.0


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _manifest()[section]}


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_threads_pinned": BLAS_THREADS,
        "l2_bytes_reference": L2_BYTES,
        "l3_bytes_reference": L3_BYTES,
    }


def _blas_threads(numpy) -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if not found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _print_report(detail: dict, result: dict) -> None:
    print(
        f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}: "
        f"{detail['ops']} ops in {detail['passes']} passes, {detail['wall_s']:.1f} s"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    if "tail_percentiles" in detail:
        kinds = detail["tail_percentiles"]
        pcts = ", ".join(f"p{k['percentile']:.0f} of {k['samples']}" for k in kinds)
        print(f"  op_ref_tail is the median over {len(kinds)} operation kinds of each kind's tail: {pcts}")
        setup = detail["setup_samples"]
        print(
            f"  setup_s is the median of {len(setup['import_s'])} imports, {statistics.median(setup['import_s']):.4g} s,"
            f" + the median of {len(setup['build_s'])} builds, {statistics.median(setup['build_s']):.4g} s"
        )
        wall = detail["wall"]
        print(
            f"  in wall seconds: reference job {wall['reference_job_s_p50'] * 1e3:.3g} ms, "
            f"trials_per_s {wall['trials_per_s']:.5g}, op_s_p50 {wall['op_s_p50']:.4g}, pass_s {wall['pass_s']:.4g}"
        )
    if "loss_table" in detail:
        table = detail["loss_table"]
        print(
            f"  loss table {table['bytes_computed'] / 2**20:.2f} MiB (computed) ="
            f" {table['over_l2']:.3g} x L2 ({L2_BYTES // 2**20} MiB), {table['over_l3']:.3g} x L3 ({L3_BYTES // 2**20} MiB)"
        )
    print(f"  verdicts {detail['verdicts']}; replayed trials checked {detail['replays_checked']}")
    print(f"  environment {json.dumps(detail['environment'])}")


def _run_all(args) -> int:
    """Every workload in its own process; prints each report and a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
