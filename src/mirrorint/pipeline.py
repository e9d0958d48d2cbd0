"""End-to-end runs from an operator to certified instanton data."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .picard_fuchs import (MirrorMap, PFOperator, SolutionBasis, frobenius_solutions,
                           mirror_map)
from .yukawa import (InstantonSeries, YukawaData, instanton_extract, yukawa_q,
                     yukawa_t)


class PipelineResult(NamedTuple):
    operator: PFOperator
    order: int
    basis: SolutionBasis
    mm: MirrorMap
    yukawa: YukawaData
    instantons: Optional[InstantonSeries] = None


def run_pipeline(op: PFOperator, order: int,
                 max_degree: Optional[int] = None) -> PipelineResult:
    """Full rank-4 run: basis, mirror map, coupling, instanton numbers."""
    if op.n0 is None:
        raise ValueError(
            f"operator {op.name!r} declares no n0; the coupling normalization "
            "W(0) = n0 is required beyond the mirror map")
    basis = frobenius_solutions(op, order)
    mm = mirror_map(basis)
    w_t = yukawa_t(op, op.n0, order)
    y_q = yukawa_q(w_t, basis.holomorphic, mm, order)
    instantons = None
    if max_degree is not None:
        instantons = instanton_extract(y_q, max_degree)
    return PipelineResult(
        operator=op,
        order=order,
        basis=basis,
        mm=mm,
        yukawa=YukawaData(w_t=w_t, y_q=y_q, n0=Fraction(op.n0)),
        instantons=instantons,
    )
