"""Output checks for the benchmark's CLI jobs.  None of this code is timed.

Every job output is checked in one of two ways:

* a recorded SHA-256 digest (perfbench/digests.json) for the fixture jobs and
  for the rational-ops jobs of the default seed;
* for rational-ops on any seed, checks that need no recorded data: every
  solution y_k printed by `solve` has zero residual under the operator, and
  the instanton numbers printed by `report` re-expand (lambert_expand) to
  the coupling Y(q) recomputed here, up to the max degree.

On top of that, every report is checked for the verdict gap: a PASS verdict
whose witness or relations re-verification says false fails the job.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from mirrorint import (LogSeries, RationalSeries, fixture_operator, frobenius_solutions,
                       lambert_expand, load_operator_json, mirror_map, residual,
                       yukawa_q, yukawa_t)

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# n_1, n_2, n_3 of the quintic as quoted in PAPER.md.
QUINTIC_N = ("2875/1", "609250/1", "317206375/1")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def load_job_operator(job):
    if job.fixture is not None:
        return fixture_operator(job.fixture)
    return load_operator_json(Path(job.operator_path).read_text(encoding="utf-8"))


def _series(doc: dict) -> RationalSeries:
    return RationalSeries.from_coeffs([Fraction(c) for c in doc["coefficients"]],
                                      order=doc["order"], valuation=doc["valuation"])


def verdict_gaps(doc: dict) -> list[str]:
    """Certificates whose verdict is pass but whose re-verification failed."""
    gaps = []
    for entry in doc["certificates"]:
        for kind in ("dwork", "ksv", "gauge"):
            cert = entry[kind]
            if cert["verdict"] == "pass" and cert["witness_verified"] is not True:
                gaps.append(f"p={entry['prime']} {kind}")
    return gaps


def _check_solve(op, doc: dict) -> list[str]:
    problems = []
    for k, ydoc in enumerate(doc["solutions"]):
        y = LogSeries([_series(part) for part in ydoc["parts"]])
        if not residual(op, y).is_zero():
            problems.append(f"residual of y_{k} is not zero")
    return problems


def _check_report(job, op, doc: dict, code: int) -> list[str]:
    problems = []
    consistent = doc["verdict"] == "CONSISTENT"
    if code != (0 if consistent else 1):
        problems.append(f"exit code {code} does not match verdict {doc['verdict']}")
    gaps = verdict_gaps(doc)
    if gaps:
        problems.append("verdict gap (pass with failed re-verification): "
                        + ", ".join(gaps))
    table = doc["instanton_table"]
    numbers = [Fraction(table["n0"])] + [Fraction(row["n"])
                                         for row in table["instanton_numbers"]]
    if job.fixture == "quintic":
        got = tuple(row["n"] for row in table["instanton_numbers"][:3])
        if got != QUINTIC_N:
            problems.append(f"quintic n_1..n_3 = {got}, expected {QUINTIC_N}")
    if job.operator_path is not None:
        order = doc["order"]
        basis = frobenius_solutions(op, order)
        y_q = yukawa_q(yukawa_t(op, op.n0, order), basis.holomorphic,
                       mirror_map(basis), order)
        through = table["max_degree"] + 1
        if not lambert_expand(numbers, through).agrees_with(y_q, through=through):
            problems.append("lambert_expand(n) disagrees with Y(q)")
    return problems


def check_job(job, code: int, text: str, digests: dict[str, str]) -> list[str]:
    """Problems found in one job's output; empty when it is correct."""
    problems = []
    want = digests.get(job.key)
    if want is None and job.operator_path is None:
        problems.append("no recorded digest for this fixture job")
    elif want is not None and sha256(text) != want:
        problems.append("output digest differs from the recorded one")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return problems + [f"output is not JSON: {e}"]
    op = load_job_operator(job)
    if job.command == "solve":
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        return problems + _check_solve(op, doc)
    if job.fixture is not None and code != 0:
        problems.append(f"exit code {code}, expected 0 for a fixture")
    return problems + _check_report(job, op, doc, code)
