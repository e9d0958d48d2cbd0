"""Benchmark of the mirrorint command line, one workload per invocation.

    python3 perfbench/run.py --workload deep-quintic --seed 1 --seconds 30 --trace 0

Runs the workload's CLI jobs through `mirrorint.cli.main`, in this process
and in sequence (a closed loop with one client), whole cycles at a time for
about `--seconds`, then checks every output.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it then replays one cycle under spans
(see tracing.py) and reports the per-layer metrics.  Each metric
is printed as a line `name: value unit`; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` of the checkout this file sits in, never
from an installed copy.  The exit code is 0 when every check passed, 1 when
a job failed a check, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, build_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
# Set-up children per batch; one batch runs before each cycle and one after
# the last, so the samples span the whole run.
SETUP_BATCH = 5

# Set-up as a user pays it: a fresh interpreter imports mirrorint, builds the
# CLI parser, parses the job's arguments and loads its operator.  Timed inside
# the child, so interpreter start-up is excluded.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mirrorint
from mirrorint import cli
args = cli.build_parser().parse_args(sys.argv[2:])
if args.fixture is not None:
    op = mirrorint.fixture_operator(args.fixture)
else:
    with open(args.operator, encoding="utf-8") as fh:
        op = mirrorint.load_operator_json(fh.read())
print(time.perf_counter() - t0, mirrorint.__file__)
"""


def measure_setup(argv, repeats: int) -> list[float]:
    """Set-up times of `repeats` fresh children."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), *argv],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, origin = proc.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported mirrorint from {origin.strip()}")
        times.append(float(seconds))
    return times


def _plant(text: str, plant: str) -> str:
    """Negative controls: corrupt one byte, or one witness_verified flag."""
    if plant == "byte":
        mid = len(text) // 2
        return text[:mid] + chr(ord(text[mid]) ^ 1) + text[mid + 1:]
    return text.replace('"witness_verified": true', '"witness_verified": false', 1)


def run_cycles(cli, jobs, seconds: float, plant: str | None, between):
    """Run whole cycles of the jobs while another would end nearer `seconds`.

    `seconds` counts job time only: `between()` runs before each cycle and
    after the last, outside the job timings.  Returns per-job (first output,
    exit code, times, number of later runs whose output differs from the
    first) and the wall time of each cycle.
    """
    runs = {job.key: {"text": None, "code": None, "times": [], "drift": 0}
            for job in jobs}
    cycle_walls = []
    planted = plant is None
    while True:
        between()
        cycle = 0.0
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as e:
                    code = e.code
            dt = time.perf_counter() - t0
            cycle += dt
            text = out.getvalue()
            if err.getvalue():
                print(f"{job.key}: {err.getvalue().strip()}", file=sys.stderr)
            if not planted and (plant == "byte" or '"witness_verified": true' in text):
                text, planted = _plant(text, plant), True
            run = runs[job.key]
            run["times"].append(dt)
            if run["text"] is None:
                run["text"], run["code"] = text, code
            elif (text, code) != (run["text"], run["code"]):
                run["drift"] += 1
        cycle_walls.append(cycle)
        if sum(cycle_walls) + cycle / 2 > seconds:
            between()
            return runs, cycle_walls


def _import_program():
    if not (SRC / "mirrorint" / "__init__.py").is_file():
        raise RuntimeError(f"no mirrorint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mirrorint
    from mirrorint import cli
    if not Path(mirrorint.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"mirrorint was imported from {mirrorint.__file__}")
    return cli


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small (orders about 12) is for the self-test")
    ap.add_argument("--plant", choices=("byte", "witness"),
                    help="negative control: plant one wrong output byte, or one "
                         "witness_verified=false, in the first report job")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = _import_program()
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    import checks
    import tracing

    jobs = build_jobs(args.workload, args.size, args.seed, WORKDIR)
    setup_argv = next(job.argv for job in jobs if job.command == "report")
    setup_times: list[float] = []

    def sample_setup():
        if not args.trace:
            setup_times.extend(measure_setup(setup_argv, SETUP_BATCH))

    if not args.trace:
        measure_setup(setup_argv, 1)  # one warm-up child, not counted
    runs, cycle_walls = run_cycles(cli, jobs, args.seconds, args.plant, sample_setup)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A job may appear several times in a cycle; its runs share one record.
    distinct = list({job.key: job for job in jobs}.values())
    digests = checks.load_digests()
    attempted = failed = 0
    for job in distinct:
        run = runs[job.key]
        problems = checks.check_job(job, run["code"], run["text"], digests)
        # Runs that repeat a faulty first output share its fault; runs that
        # differ from the first break determinism.
        attempted += len(run["times"])
        failed += len(run["times"]) if problems else run["drift"]
        if run["drift"]:
            problems.append(f"{run['drift']} later runs gave different output")
        for problem in problems:
            print(f"FAIL {job.key}: {problem}", file=sys.stderr)

    if args.trace:
        replay_problems: dict[str, list[str]] = {}
        untraced = {key: (run["text"], run["times"]) for key, run in runs.items()}
        metrics = tracing.traced_metrics(jobs, untraced, replay_problems)
        attempted += len(jobs)
        failed += len(replay_problems)
        for key, problems in replay_problems.items():
            for problem in problems:
                print(f"FAIL replay {key}: {problem}", file=sys.stderr)
    else:
        def median_of(command):
            return statistics.median(t for job in distinct if job.command == command
                                     for t in runs[job.key]["times"])

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(cycle_walls), "s"),
            "report_s": (median_of("report"), "s"),
            "solve_s": (median_of("solve"), "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
          f"{len(cycle_walls)} cycles of {len(jobs)} jobs")
    print(f"failed_ratio: {failed / attempted} ({failed} of {attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
