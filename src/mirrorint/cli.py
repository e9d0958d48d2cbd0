"""Command line front end.

Exit codes: 0 on success, 1 when a requested certificate fails (the
computation itself succeeded), 2 on any configuration or computation error.
Output is deterministic: the same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

from . import reports
from .certify import n_integrality_report
from .fixtures import fixture_names, fixture_operator
from .picard_fuchs import (MalformedSpec, PFOperator, frobenius_solutions,
                           load_operator_json, mirror_map, monodromy_matrix)
from .pipeline import run_pipeline

DEFAULT_ORDER = 64
DEFAULT_MAX_DEGREE = 16
DEFAULT_PRIME_BOUND = 50
MAX_PRIME_BOUND = 10**4
MAX_ORDER = 1000


@dataclass(frozen=True)
class JobConfig:
    command: str
    operator_path: Optional[str]
    fixture: Optional[str]
    order: int
    max_degree: int
    primes: Optional[list[int]]
    prime_bound: Optional[int]
    fmt: str
    out: Optional[str]

    def validate(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.order > MAX_ORDER:
            raise ValueError(f"order {self.order} exceeds the cap {MAX_ORDER}")
        if self.command in ("instantons", "certify", "report"):
            if self.max_degree < 1:
                raise ValueError(f"max degree must be >= 1, got {self.max_degree}")
            if self.order <= self.max_degree:
                raise ValueError(
                    f"order {self.order} must exceed max degree {self.max_degree}")


def _parse_primes(text: str) -> list[int]:
    try:
        out = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not out:
        raise argparse.ArgumentTypeError("empty prime list")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorint",
        description="Frobenius bases, mirror maps, Yukawa couplings and "
                    "p-adic integrality certificates at a MUM point.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, degree=False, primes=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--operator", metavar="PATH",
                         help="path to an operator description (JSON)")
        src.add_argument("--fixture", metavar="NAME",
                         help="built-in operator: " + ", ".join(fixture_names()))
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"series truncation order, at most {MAX_ORDER} "
                            f"(default {DEFAULT_ORDER})")
        if degree:
            p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                           help="largest instanton degree tabulated "
                                f"(default {DEFAULT_MAX_DEGREE})")
        if primes:
            grp = p.add_mutually_exclusive_group()
            grp.add_argument("--primes", type=_parse_primes, metavar="P1,P2,...",
                             help="explicit primes to certify")
            grp.add_argument("--prime-bound", type=int, metavar="INT",
                             help="certify all admissible primes up to this bound "
                                  f"(default {DEFAULT_PRIME_BOUND})")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json", help="output format (default json)")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    add_common(sub.add_parser("solve", help="Frobenius basis and monodromy profile"))
    add_common(sub.add_parser("mirror-map", help="canonical coordinate q(t) and t(q)"))
    add_common(sub.add_parser("yukawa", help="coupling in both coordinates"))
    add_common(sub.add_parser("instantons", help="instanton number table"),
               degree=True)
    add_common(sub.add_parser("certify", help="dwork/ksv/gauge certificates"),
               degree=True, primes=True)
    add_common(sub.add_parser("report", help="full integrality report"),
               degree=True, primes=True)
    return parser


def _config(args: argparse.Namespace) -> JobConfig:
    primes = getattr(args, "primes", None)
    bound = getattr(args, "prime_bound", None)
    if primes is None and bound is None:
        bound = DEFAULT_PRIME_BOUND
    cfg = JobConfig(
        command=args.command,
        operator_path=args.operator,
        fixture=args.fixture,
        order=args.order,
        max_degree=getattr(args, "max_degree", DEFAULT_MAX_DEGREE),
        primes=primes,
        prime_bound=bound,
        fmt=args.fmt,
        out=args.out,
    )
    cfg.validate()
    return cfg


def _load(cfg: JobConfig) -> PFOperator:
    if cfg.fixture is not None:
        return fixture_operator(cfg.fixture)
    try:
        with open(cfg.operator_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise MalformedSpec(f"cannot read operator file: {e}") from None
    return load_operator_json(text)


def _reject_csv(cfg: JobConfig) -> None:
    if cfg.fmt == "csv":
        raise ValueError(f"csv output is not defined for {cfg.command!r}; "
                         "use json or text")


def _check_prime_bound(cfg: JobConfig, op: PFOperator) -> None:
    if cfg.primes is None and cfg.prime_bound is not None:
        if cfg.prime_bound < op.rank + 2:
            raise ValueError(
                f"prime bound {cfg.prime_bound} leaves no room above rank "
                f"{op.rank}; need at least {op.rank + 2}")
        if cfg.prime_bound > MAX_PRIME_BOUND:
            raise ValueError(
                f"prime bound {cfg.prime_bound} exceeds the cap {MAX_PRIME_BOUND}; "
                "name larger primes with --primes")


def cmd_solve(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    _reject_csv(cfg)
    basis = frobenius_solutions(op, cfg.order)
    mono = monodromy_matrix(basis)
    if cfg.fmt == "text":
        lines = [f"operator: {op.name} (rank {op.rank}), order {cfg.order}"]
        for k, g in enumerate(basis.gs):
            lines.extend(reports.series_text_lines(g, f"g_{k}"))
        lines.append("monodromy (d/dlog t on y_0..y_%d):" % (op.rank - 1))
        for row in mono.entries:
            lines.append("  [" + ", ".join(reports.frac_str(c) for c in row) + "]")
        lines.append("rank profile: "
                     + ", ".join(f"rank(N^{e}) = {mono.rank_of_power(e)}"
                                 for e in range(1, op.rank + 1)))
        return "\n".join(lines) + "\n", 0
    doc = {
        "operator": op.name,
        "rank": op.rank,
        "order": cfg.order,
        "g": [reports.series_to_doc(g) for g in basis.gs],
        "solutions": [reports.log_series_to_doc(y) for y in basis.solutions],
        "monodromy": {
            "entries": [[reports.frac_str(c) for c in row]
                        for row in mono.entries],
            "rank_profile": [mono.rank_of_power(e)
                             for e in range(op.rank + 1)],
        },
    }
    return reports.canonical_json(doc), 0


def cmd_mirror_map(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    _reject_csv(cfg)
    mm = mirror_map(frobenius_solutions(op, cfg.order))
    if cfg.fmt == "text":
        lines = [f"operator: {op.name}, order {cfg.order}",
                 f"monodromy index k = {mm.monodromy_index}"]
        lines.extend(reports.series_text_lines(mm.q_of_t, "q(t)"))
        lines.extend(reports.series_text_lines(mm.t_of_q, "t(q)"))
        return "\n".join(lines) + "\n", 0
    doc = {
        "operator": op.name,
        "order": cfg.order,
        "monodromy_index": mm.monodromy_index,
        "q_of_t": reports.series_to_doc(mm.q_of_t),
        "t_of_q": reports.series_to_doc(mm.t_of_q),
        "dlog_q": reports.series_to_doc(mm.dlog_q),
    }
    return reports.canonical_json(doc), 0


def cmd_yukawa(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    _reject_csv(cfg)
    result = run_pipeline(op, cfg.order)
    yk = result.yukawa
    if cfg.fmt == "text":
        lines = [f"operator: {op.name}, order {cfg.order}, n0 = {yk.n0}"]
        lines.extend(reports.series_text_lines(yk.w_t, "W(t)"))
        lines.extend(reports.series_text_lines(yk.y_q, "Y(q)"))
        return "\n".join(lines) + "\n", 0
    doc = {
        "operator": op.name,
        "order": cfg.order,
        "n0": reports.frac_str(yk.n0),
        "w_t": reports.series_to_doc(yk.w_t),
        "y_q": reports.series_to_doc(yk.y_q),
    }
    return reports.canonical_json(doc), 0


def cmd_instantons(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    result = run_pipeline(op, cfg.order, max_degree=cfg.max_degree)
    inst = result.instantons
    if cfg.fmt == "csv":
        return reports.instantons_to_csv(inst), 0
    if cfg.fmt == "text":
        return reports.instantons_to_text(inst), 0
    doc = {"operator": op.name, "order": cfg.order}
    doc.update(reports.instantons_to_doc(inst))
    return reports.canonical_json(doc), 0


def _build_report(cfg: JobConfig, op: PFOperator):
    result = run_pipeline(op, cfg.order, max_degree=cfg.max_degree)
    return n_integrality_report(
        operator_name=op.name,
        rank=op.rank,
        order=cfg.order,
        mm=result.mm,
        y_q=result.yukawa.y_q,
        instantons=result.instantons,
        prime_bound=cfg.prime_bound if cfg.primes is None else None,
        primes=cfg.primes,
    )


def cmd_certify(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    _reject_csv(cfg)
    report = _build_report(cfg, op)
    code = 0 if report.consistent else 1
    if cfg.fmt == "text":
        lines = [f"operator: {op.name}, order {cfg.order}"]
        for c in report.certificates:
            for cert in (c.dwork, c.ksv, c.gauge):
                status = "PASS" if cert.verdict else "FAIL"
                line = f"p={c.prime} {cert.kind}: {status}"
                if cert.failure is not None:
                    line += (f" (index {cert.failure.index}, valuation "
                             f"{reports.valuation_value(cert.failure.valuation)})")
                lines.append(line)
        for p, reason in report.primes_skipped:
            lines.append(f"skipped p={p}: {reason}")
        return "\n".join(lines) + "\n", code
    doc = {
        "operator": op.name,
        "order": cfg.order,
        "certificates": [reports.certificate_to_doc(cert)
                         for c in report.certificates
                         for cert in (c.dwork, c.ksv, c.gauge)],
        "primes_skipped": [{"prime": p, "reason": r}
                           for p, r in report.primes_skipped],
    }
    return reports.canonical_json(doc), code


def cmd_report(cfg: JobConfig, op: PFOperator) -> tuple[str, int]:
    report = _build_report(cfg, op)
    code = 0 if report.consistent else 1
    if cfg.fmt == "csv":
        return reports.instantons_to_csv(report.instantons), code
    if cfg.fmt == "text":
        return reports.report_to_text(report), code
    return reports.canonical_json(reports.report_to_doc(report)), code


_COMMANDS = {
    "solve": cmd_solve,
    "mirror-map": cmd_mirror_map,
    "yukawa": cmd_yukawa,
    "instantons": cmd_instantons,
    "certify": cmd_certify,
    "report": cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        op = _load(cfg)
        _check_prime_bound(cfg, op)
        output, code = _COMMANDS[cfg.command](cfg, op)
        if cfg.out is not None:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(output)
    except Exception as e:  # noqa: BLE001 - map every failure to exit code 2
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if cfg.out is None:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
