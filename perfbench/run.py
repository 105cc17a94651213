"""Benchmark of ``contmeas check`` on two workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is an in-process ``contmeas.cli.main(["check", ...])`` over a model
document generated from the seed, writing report.json and bounds.csv. Jobs
repeat at the same seed for about ``--seconds`` after one untimed warm-up
job; every job must produce the same bytes as the warm-up job, whose outputs
must pass the workload's output check (outside the timed region).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced jobs, interleaved with untraced ones to measure the tracing overhead.
The line before it records the environment and the raw failure counts.
See README.md for the workloads and metrics.
"""

import os

# One BLAS thread (below nproc) keeps runs comparable; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 15  # fresh interpreters timed per run for setup_s
MIN_JOBS = 3  # timed jobs per kind of job in a run, after the warm-up job
MAX_MEASURE_S = 90.0  # stop early so a run ends within 180 s
COVERAGE_REL_TOL = 0.01  # traced layer self times must cover the job's wall time


def _load_package():
    """Import contmeas from this checkout's sources, never from elsewhere."""
    if not (SRC / "contmeas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no contmeas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contmeas

    if Path(contmeas.__file__).resolve().parent != SRC / "contmeas":
        sys.exit(f"perfbench: contmeas imported from {contmeas.__file__}, not {SRC}")


@dataclass
class Job:
    wall: float
    exit_code: object  # int, or None when the job raised
    error: str  # the exception a raising job raised, else the tail of its stderr
    outputs: tuple  # (report.json bytes, bounds.csv bytes), None when missing
    tracer: object = None


def _read(path: Path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run_job(argv: list, out_dir: Path, tracer=None) -> Job:
    """One timed ``contmeas check`` job; stderr is kept, not printed."""
    from contmeas.cli import main

    def job():
        return main(argv + ["--out", str(out_dir)])

    stderr = io.StringIO()
    code, error = None, ""
    gc.collect()  # every job starts from a collected heap, outside its timing
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = job() if tracer is None else tracer.run(job)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    if not error:
        error = stderr.getvalue()[-300:]
    outputs = (_read(out_dir / "report.json"), _read(out_dir / "bounds.csv"))
    shutil.rmtree(out_dir, ignore_errors=True)
    return Job(wall=wall, exit_code=code, error=error, outputs=outputs, tracer=tracer)


def setup_probe(model_path: Path) -> tuple:
    """Cold set-up seconds of one fresh interpreter, or a problem."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(model_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        return None, f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}"
    return float(proc.stdout.strip().splitlines()[-1]), None


def judge(workload, model, jobs: list) -> tuple:
    """Failed-job count and problems: raising, failing exit codes, outputs
    that differ from the first job's, or first-job outputs that fail the
    workload's output check."""
    from workloads import check_bounds_csv, read_bounds

    problems = []
    reference = jobs[0]
    failed_jobs = set()
    for i, job in enumerate(jobs):
        if job.exit_code is None or job.exit_code in workload.failing_exits:
            failed_jobs.add(i)
            problems.append(f"job {i}: exit {job.exit_code}: {job.error.strip()}")
        elif job.outputs != reference.outputs:
            failed_jobs.update((0, i))
            problems.append(f"job {i}: outputs differ from job 0 at the same seed")
    report, bounds = reference.outputs
    if report is None or bounds is None:
        failed_jobs.add(0)
        problems.append("job 0 wrote no report.json or bounds.csv")
    elif 0 not in failed_jobs:
        try:
            output_problems = workload.check(model, json.loads(report))
            output_problems += check_bounds_csv(read_bounds(bounds.decode("utf-8")), reference.exit_code)
        except Exception as exc:  # outputs the check cannot read are wrong outputs
            output_problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if output_problems:
            failed_jobs.update(i for i, job in enumerate(jobs) if job.outputs == reference.outputs)
            problems += output_problems
    return len(failed_jobs), problems


def bound_counts(job: Job) -> tuple:
    """(failing rows, rows) of a job's bounds.csv."""
    from workloads import read_bounds

    bounds = job.outputs[1]
    if bounds is None:
        return 0, 0
    rows = read_bounds(bounds.decode("utf-8"))
    return sum(row["pass"] == "false" for row in rows), len(rows)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "processes": 1,
    }


def measure(args, workload, model, argv: list, work: Path) -> tuple:
    """Untraced run: end-to-end metrics."""
    setups, problems = [], []

    def probe_until(count):
        while len(setups) + len(problems) < count:
            value, problem = setup_probe(work / "model.json")
            if problem is None:
                setups.append(value)
            else:
                problems.append(problem)

    jobs = [run_job(argv, work / "warmup")]  # untimed: first-call costs stay out
    timed = []
    start = time.perf_counter()
    while True:
        timed.append(run_job(argv, work / f"job{len(jobs)}"))
        jobs.append(timed[-1])
        elapsed = time.perf_counter() - start
        # spread the set-up probes over the run rather than bunching them
        probe_until(min(SETUP_RUNS, int(SETUP_RUNS * elapsed / args.seconds)))
        typical = statistics.median(job.wall for job in timed)
        if (len(timed) >= MIN_JOBS and elapsed + typical > args.seconds) or elapsed > MAX_MEASURE_S:
            break
    probe_until(SETUP_RUNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed, job_problems = judge(workload, model, jobs)
    fail_rows, rows = bound_counts(jobs[0])
    metrics = {
        "check_s": (statistics.median(job.wall for job in timed), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "jobs_ok_frac": (1.0 - failed / len(jobs), "frac"),
        "bound_pass_frac": ((1.0 - fail_rows / rows) if rows else 0.0, "frac"),
    }
    detail = {
        "jobs": len(jobs),
        "failed_frac": failed / len(jobs),
        "bound_fail_rows": fail_rows,
        "bound_rows": rows,
    }
    return jobs, failed, problems + job_problems, metrics, detail


def measure_traced(args, workload, model, argv: list, work: Path) -> tuple:
    """Traced run: per-layer metrics from traced jobs, alternating with
    untraced ones for the tracing overhead."""
    from spans import Tracer

    jobs, plain, traced = [run_job(argv, work / "warmup")], [], []
    start = time.perf_counter()
    while True:
        for tracer in (None, Tracer()):
            job = run_job(argv, work / f"job{len(jobs)}", tracer)
            jobs.append(job)
            (plain if tracer is None else traced).append(job)
        elapsed = time.perf_counter() - start
        pair = statistics.median(j.wall for j in plain) + statistics.median(j.wall for j in traced)
        if (len(traced) >= MIN_JOBS and elapsed + pair > args.seconds) or elapsed > MAX_MEASURE_S:
            break
    failed, problems = judge(workload, model, jobs)
    per_job = []
    for i, job in enumerate(traced):
        values = job.tracer.metrics()
        covered = sum(job.tracer.self_s.values())
        if job.tracer.open_spans() or abs(covered - job.wall) > COVERAGE_REL_TOL * job.wall:
            problems.append(
                f"traced job {i}: layer self times sum to {covered!r} s, wall {job.wall!r} s"
            )
        per_job.append(values)
    metrics = {}
    for name in sorted(per_job[0]):
        values = [v[name] for v in per_job]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:  # counts repeat exactly at one seed; keep them whole
            unit = "frac" if name.endswith("ratio") else "count"
            metrics[name] = (statistics.median_low(values), unit)
    overhead = statistics.median(j.wall for j in traced) / statistics.median(j.wall for j in plain)
    metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
    fail_rows, rows = bound_counts(jobs[0])
    detail = {
        "jobs": len(jobs),
        "traced_jobs": len(traced),
        "failed_frac": failed / len(jobs),
        "bound_fail_rows": fail_rows,
        "bound_rows": rows,
    }
    return jobs, failed, problems, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_package()
    from contmeas.model import serialize_model
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        model = workload.model(args.seed)
        model_path = work / "model.json"
        model_path.write_text(serialize_model(model), encoding="utf-8")
        argv = ["check", "--model", str(model_path), "--seed", str(args.seed)]
        argv += list(workload.mode_args)
        run = measure_traced if args.trace else measure
        jobs, failed, problems, metrics, detail = run(args, workload, model, argv, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, problems=len(problems))
    print(json.dumps({"env": environment(), "detail": detail}, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
