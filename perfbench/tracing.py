"""Traced replay of one cycle of a workload, for the per-layer metrics.

Spans are recorded here, around calls into the public functions of each
module of `mirrorint`; nothing inside the program is instrumented.  A
`report` job is replayed as the calls `cli._build_report` and `cmd_report`
make, and its `canonical_json` bytes must equal the untraced job's output.
A `solve` job is replayed as the three calls `solve_stage` makes; its
serialisation lives inside `cli` and is not replayed.

After each replayed report, outside the job span: the kernel probes (one
`RationalSeries.reversion` of this job's q(t), one `.compose` of W/y0^2
with t(q)) and the per-prime `dwork_certify`, `ksv_certify` and
`gauge_certify` calls for every tested prime.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from mirrorint import (dwork_certify, frobenius_solutions, gauge_certify, instanton_extract,
                       ksv_certify, mirror_map, monodromy_matrix, n_integrality_report,
                       yukawa_q, yukawa_t)
from mirrorint import cli, reports

from checks import load_job_operator

JOB = "cli.job"

# Per-layer span names, in the order they are reported.
LAYER_SPANS = (
    "picard_fuchs.frobenius_solutions",
    "picard_fuchs.monodromy_matrix",
    "picard_fuchs.mirror_map",
    "yukawa.yukawa_t",
    "yukawa.yukawa_q",
    "yukawa.instanton_extract",
    "series.reversion",
    "series.compose",
    "certify.n_integrality_report",
    "certify.dwork",
    "certify.ksv",
    "certify.gauge",
    "reports.serialize",
)


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; a span's parent is the innermost open span."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, job: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, job, parent, time.perf_counter(), time.process_time())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.cpu_end = time.process_time()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        """Summed duration of the named spans minus that of their children."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.seconds for s in self.spans if s.parent in ids)
        return sum(self.spans[i].seconds for i in ids) - children


def _bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


@dataclass
class Counts:
    q_bits: int = 0
    t_of_q_bits: int = 0
    y_bits: int = 0
    primes_tested: int = 0
    primes_skipped: int = 0
    failed_verdicts: int = 0
    unverified: int = 0
    report_bytes: int = 0


def replay_job(job, tracer: Tracer, counts: Counts, problems: list[str]):
    """Replay one job under spans; returns the replayed report text or None."""
    def sp(name):
        return tracer.span(name, job.key)

    with sp(JOB):
        args = cli.build_parser().parse_args(list(job.argv))
        op = load_job_operator(job)
        order = args.order
        with sp("picard_fuchs.frobenius_solutions"):
            basis = frobenius_solutions(op, order)
        with sp("picard_fuchs.monodromy_matrix"):
            monodromy_matrix(basis)
        with sp("picard_fuchs.mirror_map"):
            mm = mirror_map(basis)
        if job.command != "report":
            return None
        with sp("yukawa.yukawa_t"):
            w_t = yukawa_t(op, op.n0, order)
        with sp("yukawa.yukawa_q"):
            y_q = yukawa_q(w_t, basis.holomorphic, mm, order)
        with sp("yukawa.instanton_extract"):
            inst = instanton_extract(y_q, args.max_degree)
        with sp("certify.n_integrality_report"):
            report = n_integrality_report(
                operator_name=op.name, rank=op.rank, order=order, mm=mm, y_q=y_q,
                instantons=inst, prime_bound=args.prime_bound, primes=None)
        with sp("reports.serialize"):
            text = reports.canonical_json(reports.report_to_doc(report))

    # Kernel probes, outside the job span.
    with sp("series.reversion"):
        t_of_q = mm.q_of_t.reversion()
    if t_of_q != mm.t_of_q:
        problems.append("reversion probe differs from mirror_map's t(q)")
    inner = mm.t_of_q.truncate(order + 1)
    outer = (w_t * basis.holomorphic.invert().pow_int(2)).truncate(order)
    with sp("series.compose"):
        outer.compose(inner)

    # Per-prime certificates, outside the job span.
    for c in report.certificates:
        p = c.prime
        with sp("certify.dwork"):
            dw = dwork_certify(mm, p, order)
        with sp("certify.ksv"):
            ks = ksv_certify(y_q, p, order)
        with sp("certify.gauge"):
            ga = gauge_certify(y_q, p, order)
        if (dw.verdict, ks.verdict, ga.verdict) != (c.dwork.verdict, c.ksv.verdict,
                                                     c.gauge.verdict):
            problems.append(f"p={p} verdicts differ from the report's")

    counts.q_bits = max(counts.q_bits, _bits(mm.q_of_t))
    counts.t_of_q_bits = max(counts.t_of_q_bits, _bits(mm.t_of_q))
    counts.y_bits = max(counts.y_bits, _bits(y_q))
    counts.primes_tested += len(report.primes_tested)
    counts.primes_skipped += len(report.primes_skipped)
    for c in report.certificates:
        for cert, checked in ((c.dwork, c.dwork.witness_verified),
                              (c.ksv, c.ksv.witness_verified),
                              (c.gauge, c.gauge.relations_verified)):
            counts.failed_verdicts += not cert.verdict
            counts.unverified += not checked
    counts.report_bytes += len(text.encode("utf-8"))
    return text


def traced_metrics(jobs, untraced, problems: dict[str, list[str]]):
    """Replay one cycle; untraced maps job key -> (first output, job times).

    Returns name -> (value, unit); problems found are filed under the job key.
    """
    tracer = Tracer()
    counts = Counts()
    overhead = 0.0
    for job in jobs:
        found: list[str] = []
        text = replay_job(job, tracer, counts, found)
        if text is not None:
            first, times = untraced[job.key]
            if text != first:
                found.append("replayed report bytes differ from the CLI output")
            traced = sum(s.seconds for s in tracer.spans
                         if s.name == JOB and s.job == job.key)
            overhead += traced - statistics.median(times)
        if found:
            problems[job.key] = found

    metrics = {f"{name}_s": (tracer.total(name), "s") for name in LAYER_SPANS}
    job_spans = [s for s in tracer.spans if s.name == JOB]
    attempted = counts.primes_tested + counts.primes_skipped
    metrics.update({
        "cli.job_s": (sum(s.seconds for s in job_spans), "s"),
        "cli.self_s": (tracer.self_seconds(JOB), "s"),
        "trace.overhead_s": (overhead, "s"),
        "process.cpu_s": (sum(s.cpu_end - s.cpu_start for s in job_spans), "s"),
        "reports.bytes": (counts.report_bytes, "bytes"),
        "series.q_bits": (counts.q_bits, "bits"),
        "series.t_of_q_bits": (counts.t_of_q_bits, "bits"),
        "series.y_bits": (counts.y_bits, "bits"),
        "certify.primes_tested": (counts.primes_tested, "count"),
        "certify.primes_skipped": (counts.primes_skipped, "count"),
        "certify.tested_ratio": (counts.primes_tested / attempted if attempted else 0.0,
                                 "ratio"),
        "certify.failed_verdicts": (counts.failed_verdicts, "count"),
        "certify.unverified": (counts.unverified, "count"),
    })
    return metrics
