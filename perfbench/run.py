"""Benchmark harness for linedefects.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linedp_predict --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from the seed, repeats the workload's op
(a closed loop, one op at a time) until the next op would end after
``--seconds``, checks every op's outputs, and prints a report followed by
one JSON line with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). Work files go to ``.perfbench_work/`` at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is repeated and its median reported, so one slow repeat does not move setup_s
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _environment(workers: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any worker it has waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "linedefects" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'linedefects'}", file=sys.stderr)
        return 2
    try:
        declared = _declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    # The CLI's default is one explain worker per core; BLAS gets what is left
    # so that BLAS threads x workers <= nproc. Set before numpy is imported.
    nproc = os.cpu_count() or 1
    workers = nproc
    blas_threads = max(1, nproc // workers)
    for var in THREAD_VARS:
        os.environ[var] = str(blas_threads)

    t_import = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import linedefects.cli  # loads every module the probes wrap
    import layers
    import spans
    from checks import digest
    from workloads import WORKLOADS

    import_s = perf_counter() - t_import

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = _fresh(WORK / args.workload)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = _environment(workers, blas_threads)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in env.items()))

    def quiet_call(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return linedefects.cli.main(argv)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        data = _fresh(work / "data")
        shape = wl.prepare(args.seed, data)
        rc = quiet_call(["density", "--dataset", str(wl.dataset), "--out", str(data / "density.csv")])
        setups.append(import_s + perf_counter() - t)
        if rc != 0:
            print(f"error: warm-up exited {rc}", file=sys.stderr)
            return 1
    print("shape " + " ".join(f"{k}={v}" for k, v in shape.items()))

    tracer = spans.Tracer(work / "spool") if args.trace else None
    probes = layers.probes(linedefects) if tracer else []
    call = quiet_call
    if tracer:
        def call(argv: list[str]) -> int:
            return tracer.call("cli.main", quiet_call, argv)

    op_times: list[float] = []
    failed = 0
    reference = None
    d2h: dict[str, float] = {}
    defect_prone = None
    with spans.Instrumented(tracer, probes) if tracer else contextlib.nullcontext() as inst:
        if tracer and inst.missing:
            print("not instrumented (missing): " + ", ".join(inst.missing))
        started = perf_counter()
        while True:
            n = len(op_times) + 1
            out = _fresh(work / "op" / str(n))
            t = perf_counter()
            try:
                if tracer:
                    tracer.begin_op(n)
                    problems = tracer.call("op", wl.op, call, out)
                else:
                    problems = wl.op(call, out)
            except Exception:
                problems = ["op raised:\n" + traceback.format_exc()]
            op_times.append(perf_counter() - t)
            if tracer:
                tracer.merge_workers()
            if not problems:
                found, op_d2h = wl.check(out)
                problems += found
            sha = None
            if not problems:
                sha = digest(wl.outputs(out))
                if reference is None:
                    reference, d2h, defect_prone = sha, op_d2h, wl.defect_prone_files(out)
                elif sha != reference:
                    problems.append(f"outputs differ from op 1: sha256 {sha} != {reference}")
            if problems:
                failed += 1
                for p in problems:
                    print(f"op {n} FAILED: {p}", file=sys.stderr)
            elif n > 1:
                shutil.rmtree(out)
            print(f"op {n} {_fmt(op_times[-1])} s {'FAILED' if problems else 'ok'} sha256={sha}")
            elapsed = perf_counter() - started
            if elapsed + statistics.median(op_times) > args.seconds:
                break

    attempted = len(op_times)
    if reference is not None:
        if attempted == 1:
            note = "1 op, not compared"
        else:
            note = f"{attempted - failed} of {attempted} ops identical"
        print(f"outputs sha256={reference} ({note})")
    if defect_prone is not None:
        print(f"defect_prone_files={defect_prone} (files with ranked lines and probability > 0.5)")

    e2e = {
        "op_s": (statistics.median(op_times), f"n={attempted} ops"),
        "setup_s": (statistics.median(setups), f"n={len(setups)} set-ups"),
        "peak_rss_mb": (_peak_rss_mb(), "n=1 run, max over the bench process and its workers"),
    }
    report = {name: value for name, (value, _) in e2e.items()}
    for method, value in sorted(d2h.items()):
        print(f"metric d2h.{method} {_fmt(value)} 1 deterministic given the seed")
    print(f"metric error_rate {_fmt(failed / attempted)} ratio {failed}/{attempted} ops")
    for name, (value, note) in e2e.items():
        print(f"metric {name} {_fmt(value)} {declared[0].get(name, '?')} {note}")

    if tracer:
        tracer.write(work / "spans.jsonl")
        report = layers.layer_metrics(tracer.spans, tracer.counts)
        for name, value in report.items():
            print(f"layer {name} {_fmt(value)} {declared[1].get(name, '?')}")
        untraced = results_dir / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["op_s"]["value"]
            print(f"trace.overhead_s {_fmt(report['trace.op_s'] - base)} (traced op_s minus untraced op_s)")

    wanted = declared[args.trace]
    metrics = {name: {"value": report[name], "unit": unit} for name, unit in wanted.items() if name in report}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, env=env, shape=shape,
                  op_s=op_times, setup_s=setups, d2h=d2h, sha256=reference)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
