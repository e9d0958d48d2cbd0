"""Small-size self-test of the benchmark (orders about 12, a few seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the seed changes the rational-ops operators and nothing else, that the
negative controls fail the run, and that the benchmark refuses to run in a
directory holding only itself.  Prints one line per check; exit 0 when all
pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(*args, cwd=ROOT, runner=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(runner), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_metrics(spec) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--size", "small")
            assert proc.returncode == 0, proc.stderr
            assert result["correct"] and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            values = [m["value"] for m in result["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values), values
            if trace == 0:
                assert all(v > 0 for v in values), result["metrics"]
    print("ok: every metric is emitted with its unit, on every workload")


def check_seed() -> None:
    def operators(workload, seed):
        jobs = build_jobs(workload, "small", seed, SCRATCH / f"seed{seed}")
        docs = sorted({Path(j.operator_path).read_text() for j in jobs if j.operator_path})
        shape = [(j.command, j.fixture, [a for a in j.argv if not a.endswith(".json")])
                 for j in jobs]
        return shape, docs

    for workload in WORKLOADS:
        a, b, again = (operators(workload, 1), operators(workload, 2),
                       operators(workload, 1))
        assert a == again, workload
        assert a[0] == b[0], workload
        if workload == "rational-ops":
            assert a[1] != b[1] and len(a[1]) == 3
        else:
            assert a[1] == b[1] == []
    print("ok: the seed changes the rational-ops operators and nothing else")


def check_negative_controls() -> None:
    for plant, workload in (("byte", "deep-quintic"), ("witness", "deep-quintic"),
                            ("witness", "rational-ops")):
        proc, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                             "--size", "small", "--plant", plant)
        assert proc.returncode != 0, (plant, workload)
        assert result is not None and not result["correct"] and result["failed"] > 0
        assert "failed_ratio: 0.0 " not in proc.stdout
        if plant == "witness":
            assert "verdict gap" in proc.stderr, proc.stderr
    print("ok: a planted wrong byte or witness_verified=false fails the run")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "deep-quintic", "--seed", "1", "--seconds", "1",
                         cwd=bare, runner=bare / HERE.name / "run.py")
    assert proc.returncode != 0 and result is None, proc.stdout
    shutil.rmtree(bare)
    print("ok: without the program's sources the benchmark exits nonzero, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_seed()
    check_negative_controls()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
