"""fairsamp benchmark: one closed-loop, single-client workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload bell-large --seed 1 --seconds 30 --trace 0

The run imports fairsamp from ``src/`` of the checkout, builds the
workload's inputs from ``--seed`` (several times, to time set-up), warms up,
then repeats whole passes of the workload's operations for ``--seconds``.
Every operation is checked; a wrong answer or an exception counts as failed.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
half the budget runs untraced, the same number of passes then runs under
the tracer, and the per-layer metrics plus the tracing overhead are
reported.  The last line of standard output is the JSON result; a fuller
record (provenance, per-kind latencies, failures) goes to
``.perfbench/results/`` and the spans of a traced run to
``.perfbench/spans-<workload>.json``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("bell-large", "device-verdict", "scenario-sweep")
#: BLAS runs one thread: on a small shared machine a second BLAS thread only
#: spins, and two busy processes with two BLAS threads each slow down tenfold.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Relative mismatch allowed between the traced time and its layer decomposition.
ACCOUNTING_TOL = 1e-6
#: Set-ups and fresh-interpreter imports timed per run; their medians are reported.
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results-dir", type=Path, default=ROOT / ".perfbench")
    return p.parse_args(argv)


def import_program():
    """Import fairsamp from this checkout's src/, never from an installed copy."""
    if not (SRC / "fairsamp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fairsamp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fairsamp

    if Path(fairsamp.__file__).resolve().parent != (SRC / "fairsamp").resolve():
        raise SystemExit(f"perfbench: imported fairsamp from {fairsamp.__file__}, not {SRC}")


def import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing fairsamp from src/.

    One process can import a module only once, so the import share of
    set-up is timed in child interpreters, each waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fairsamp"], env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report_line(name: str, metric: dict, note: str = "") -> str:
    return f"{name} = {metric['value']:.6g} {metric['unit']}{note}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    given_env = {k: os.environ.get(k) for k in ("FAIRSAMP_THREADS", *BLAS_THREAD_VARS)}
    os.environ.pop("FAIRSAMP_THREADS", None)
    os.environ.update({k: "1" for k in BLAS_THREAD_VARS})
    import_program()

    import harness
    import workloads

    thread_env = {"given": given_env, "run": harness.thread_environment()}
    import_s = time.perf_counter() - START

    setup = workloads.WORKLOADS[args.workload]
    work_root = args.results_dir / f"work-{os.getpid()}"
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            work_dir = work_root / f"setup{r}"
            work_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            plan = setup(args.seed, work_dir)
            setup_times.append(time.perf_counter() - t0)
        # Only the untraced run reports set-up time.
        fresh_import_s = import_seconds(SETUP_REPEATS) if args.trace == 0 else None

        warm = [harness.run_op(op, i) for i, op in enumerate(plan.warmup)]
        failures = [r.error for r in warm if not r.ok]
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}

        if args.trace == 0:
            loop = harness.run_passes(plan.ops, seconds=args.seconds)
            metrics, extras = harness.end_to_end(loop, fresh_import_s + statistics.median(setup_times))
            loops = [loop]
            extras["setup_runs_s"] = setup_times
            extras["import_s"] = fresh_import_s
            extras["in_process_import_s"] = import_s
            lines = [
                report_line(name, m, {
                    "op_p50_ms": f" (n={extras['samples']})",
                    "op_tail_ms": f" (p{extras['op_tail_percentile']:.2f}, n={extras['samples']})",
                }.get(name, ""))
                for name, m in metrics.items()
            ]
            lines.append(f"failed_ratio = {extras['failed_ratio']:.6g} 1 ({loop.failed} of {loop.attempted})")
            accounting_ok = True
        else:
            import tracer as tracing

            untraced = harness.run_passes(plan.ops, seconds=args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_passes(plan.ops, passes=untraced.passes, around=tracer.operation)
            finally:
                tracer.uninstall()
            busy = [sum(r.wall_s for r in run.records) for run in (traced, untraced)]
            metrics, accounting = tracer.metrics(traced.passes, *busy)
            tracer.write_spans(args.results_dir / f"spans-{args.workload}.json")
            loops = [untraced, traced]
            accounting_ok = abs(accounting["residual_s"]) <= ACCOUNTING_TOL * max(accounting["op_s"], 1e-9)
            extras = {"passes": traced.passes, "accounting": accounting}
            lines = [report_line(name, m) for name, m in metrics.items()]
            lines.append(
                "accounting: layer self {layer_self_s:.6g} s + unattributed {unattributed_s:.6g} s "
                "= traced operations {op_s:.6g} s (residual {residual_s:.3g} s, {spans} spans)".format(**accounting)
            )

        attempted = sum(run.attempted for run in loops)
        failed = sum(run.failed for run in loops) + len(failures)
        failures += [r.error for run in loops for r in run.records if not r.ok]
        correct = failed == 0 and accounting_ok
        record.update(
            correct=correct,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            extras=extras,
            provenance=harness.provenance(ROOT, args.seed, thread_env),
            failures=failures[:20],
            samples=[[r.index, r.wall_s, r.cpu_s] for run in loops for r in run.records],
        )
        results = args.results_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for failure in failures[:5]:
        sys.stderr.write(f"perfbench: operation failed:\n{failure}\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={extras['passes']}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
