"""Serialization of series, certificates and reports.

All rational values are emitted as "num/den" strings so nothing is ever
squeezed through floating point; valuations are integers with infinity
spelled "inf".  JSON emission is canonical (sorted keys, two-space indent,
trailing newline) so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .certify import (DworkCertificate, FailureLocus, GaugeCertificate,
                      IntegralityReport, KSVCertificate, denominator_support)
from .padic import INF
from .series import LogSeries, RationalSeries
from .yukawa import InstantonSeries


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def valuation_value(v) -> object:
    return "inf" if v == INF else int(v)


def series_to_doc(s: RationalSeries) -> dict:
    return {
        "valuation": s.val,
        "order": s.order,
        "coefficients": [frac_str(c) for c in s.coeffs],
    }


def log_series_to_doc(f: LogSeries) -> dict:
    """parts[j] multiplies (log t)^j."""
    return {"parts": [series_to_doc(p) for p in f.parts]}


def _failure_doc(loc: FailureLocus | None) -> dict | None:
    if loc is None:
        return None
    return {"index": loc.index, "valuation": valuation_value(loc.valuation)}


def _verdict_str(passed: bool) -> str:
    return "pass" if passed else "fail"


def certificate_to_doc(cert) -> dict:
    doc = {
        "kind": cert.kind,
        "prime": cert.prime,
        "order": cert.order,
        "verdict": _verdict_str(cert.verdict),
        "failure": _failure_doc(cert.failure),
    }
    if isinstance(cert, (DworkCertificate, KSVCertificate)):
        doc["witness"] = series_to_doc(cert.witness)
        doc["witness_verified"] = cert.witness_verified
    elif isinstance(cert, GaugeCertificate):
        doc["witness"] = {
            "m13": series_to_doc(cert.m13),
            "m23": series_to_doc(cert.m23),
            "m14": series_to_doc(cert.m14),
        }
        doc["series_verdicts"] = [
            {"series": c.name, "verdict": _verdict_str(c.passed),
             "failure": _failure_doc(c.failure)}
            for c in cert.checks
        ]
        doc["witness_verified"] = cert.relations_verified
    else:
        raise TypeError(f"not a certificate: {cert!r}")
    return doc


def instantons_to_doc(inst: InstantonSeries) -> dict:
    rows = []
    for d in range(1, inst.max_degree + 1):
        nd = inst.numbers[d]
        rows.append({
            "d": d,
            "n": frac_str(nd),
            "denominator_primes": list(denominator_support([nd])),
        })
    return {
        "n0": frac_str(inst.numbers[0]),
        "max_degree": inst.max_degree,
        "source_order": inst.source_order,
        "instanton_numbers": rows,
    }


def instantons_to_csv(inst: InstantonSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "n_d", "denominator_primes"])
    for d in range(1, inst.max_degree + 1):
        nd = inst.numbers[d]
        support = ";".join(str(p) for p in denominator_support([nd]))
        writer.writerow([d, frac_str(nd), support])
    return buf.getvalue()


def report_to_doc(report: IntegralityReport) -> dict:
    return {
        "operator": report.operator_name,
        "rank": report.rank,
        "order": report.order,
        "max_degree": report.max_degree,
        "q_denominator_support": list(report.q_support),
        "instanton_denominator_support": list(report.instanton_support),
        "n_observed": str(report.n_observed),
        "prime_bound": report.prime_bound,
        "primes_tested": list(report.primes_tested),
        "primes_skipped": [{"prime": p, "reason": r}
                           for p, r in report.primes_skipped],
        "certificates": [
            {
                "prime": c.prime,
                "dwork": certificate_to_doc(c.dwork),
                "ksv": certificate_to_doc(c.ksv),
                "gauge": certificate_to_doc(c.gauge),
            }
            for c in report.certificates
        ],
        "instanton_table": instantons_to_doc(report.instantons),
        "verdict": "CONSISTENT" if report.consistent else "INCONSISTENT",
        "notes": list(report.notes),
    }


def series_text_lines(s: RationalSeries, label: str) -> list[str]:
    lines = [f"{label} (order {s.order}):"]
    for i, c in enumerate(s.coeffs):
        if c:
            lines.append(f"  t^{s.val + i}: {frac_str(c)}")
    if s.is_zero():
        lines.append("  0")
    return lines


def report_to_text(report: IntegralityReport) -> str:
    lines = [
        f"operator: {report.operator_name} (rank {report.rank})",
        f"working order: {report.order}",
        f"instanton table degree: {report.max_degree}",
        "q-coefficient denominator support: "
        + (", ".join(map(str, report.q_support)) or "(empty)"),
        "instanton denominator support: "
        + (", ".join(map(str, report.instanton_support)) or "(empty)"),
        f"N_observed = {report.n_observed}",
    ]
    if report.prime_bound is not None:
        lines.append(f"prime bound: {report.prime_bound}")
    lines.append("primes tested: "
                 + (", ".join(map(str, report.primes_tested)) or "(none)"))
    for p, reason in report.primes_skipped:
        lines.append(f"  skipped p={p}: {reason}")
    for c in report.certificates:
        lines.append(
            f"  p={c.prime}: dwork {_verdict_str(c.dwork.verdict).upper()}"
            f"  ksv {_verdict_str(c.ksv.verdict).upper()}"
            f"  gauge {_verdict_str(c.gauge.verdict).upper()}")
        for cert in (c.dwork, c.ksv, c.gauge):
            if cert.failure is not None:
                lines.append(
                    f"    {cert.kind} failure at index {cert.failure.index}, "
                    f"valuation {valuation_value(cert.failure.valuation)}")
    lines.append(f"verdict: {'CONSISTENT' if report.consistent else 'INCONSISTENT'}")
    lines.append("instanton numbers:")
    lines.extend("  " + line for line in
                 instantons_to_text(report.instantons).rstrip("\n").split("\n"))
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def instantons_to_text(inst: InstantonSeries) -> str:
    width = max(len(str(inst.max_degree)), 1)
    lines = [f"n_0 = {frac_str(inst.numbers[0])}"]
    for d in range(1, inst.max_degree + 1):
        nd = inst.numbers[d]
        support = denominator_support([nd])
        tail = f"  (denominator primes: {', '.join(map(str, support))})" if support else ""
        lines.append(f"n_{d:<{width}} = {frac_str(nd)}{tail}")
    return "\n".join(lines) + "\n"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
