"""Workload definitions: the CLI jobs each workload runs, and their inputs.

A workload is a list of jobs, one pass over which is a cycle.  Each job is
one `mirrorint` command line.  The fixture workloads use built-in operators;
rational-ops writes seeded random operators to JSON files and hands the
program only those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("deep-quintic", "wide-primes", "rational-ops")
RATIONAL_OPERATORS = 3
RATIONAL_COEFF_RANGE = 6


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `key` names it in digests.json and in traces."""

    key: str
    command: str
    argv: tuple[str, ...]
    fixture: str | None = None
    operator_path: str | None = None


# (solve order, report order, max degree, prime bound) per size.  "full" is
# the benchmark proper; "small" (orders about 12) serves the self-test, so
# every size keeps the report order above the max degree.
_SIZES = {
    "full": {
        "deep-quintic": ("60", "100", "16", "14"),
        "wide-primes": ("60", "60", "16", "200"),
        "rational-ops": ("40", "40", "16", "60"),
    },
    "small": {
        "deep-quintic": ("12", "12", "8", "14"),
        "wide-primes": ("12", "12", "8", "60"),
        "rational-ops": ("12", "12", "8", "30"),
    },
}

# Fixture `solve` jobs per cycle.  A fixture workload is about its `report`;
# its `solve` exists because every end-to-end metric must be reported on
# every workload.  On a shared machine the CPU speed can drift by 10-30%
# over minutes (README, "Host and noise"), and a run's median of only two or
# three samples adds its own scatter to that.  So each fixture solve is a
# job of under a second, run three times a cycle: deep-quintic solves at
# order 60, because at order 100 a solve takes a third of each cycle.
_FIXTURE_SOLVES = 3

_FIXTURE = {"deep-quintic": "quintic", "wide-primes": "x2222"}


def random_operator_doc(rng: random.Random, name: str) -> dict:
    """Rank-4 MUM operator with quadratic a_i(t), coefficients in [-6, 6].

    a_i(0) = 0 for i < 4 and a_4(0) = 1 (the MUM normalisation); the t^2
    coefficient is nonzero so every a_i really is quadratic.  n0 = 1.
    """
    lim = RATIONAL_COEFF_RANGE
    nonzero = [c for c in range(-lim, lim + 1) if c]
    coeffs = [[0, rng.randint(-lim, lim), rng.choice(nonzero)] for _ in range(4)]
    coeffs.append([1, rng.randint(-lim, lim), rng.choice(nonzero)])
    return {"name": name, "rank": 4, "delta_coefficients": coeffs, "n0": 1}


def rational_operator_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_operator_doc(rng, f"rand{seed}_{k}")
            for k in range(RATIONAL_OPERATORS)]


def build_jobs(workload: str, size: str, seed: int, workdir: Path) -> list[Job]:
    """The jobs of one cycle.  rational-ops writes its operators under workdir."""
    solve_order, order, max_degree, bound = _SIZES[size][workload]
    solve_tail = ("--order", solve_order)
    report_tail = ("--order", order, "--max-degree", max_degree, "--prime-bound", bound)
    if workload in _FIXTURE:
        fx = _FIXTURE[workload]
        src = ("--fixture", fx)
        solve = Job(f"{size}/solve/{fx}", "solve", ("solve",) + src + solve_tail,
                    fixture=fx)
        report = Job(f"{size}/report/{fx}", "report", ("report",) + src + report_tail,
                     fixture=fx)
        return [solve] * _FIXTURE_SOLVES + [report]
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for doc in rational_operator_docs(seed):
        path = workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        src = ("--operator", str(path))
        name = doc["name"]
        jobs.append(Job(f"{size}/solve/{name}", "solve", ("solve",) + src + solve_tail,
                        operator_path=str(path)))
        jobs.append(Job(f"{size}/report/{name}", "report",
                        ("report",) + src + report_tail, operator_path=str(path)))
    return jobs
