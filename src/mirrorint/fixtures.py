"""Built-in operator descriptions.

The hypergeometric family delta^r - C t (d_1 delta + n_1) ... (d_r delta + n_r)
covers the classical one-parameter examples; the quintic threefold operator
is the member C = 5, factors (5,1)(5,2)(5,3)(5,4) with triple intersection
number n_0 = 5, and x2222 (four quadrics in P^7) is C = 16 with factors
(2,1)^4 and n_0 = 16.
"""

from __future__ import annotations

from .picard_fuchs import PFOperator, load_operator


def hypergeometric_doc(name: str, scale: int, factors, n0: int | None = None) -> dict:
    """Operator description for delta^r - scale * t * prod(d*delta + n)."""
    poly = [1]
    for d, n in factors:
        nxt = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j] += n * c
            nxt[j + 1] += d * c
        poly = nxt
    rank = len(factors)
    coeffs = []
    for j in range(rank + 1):
        lead = 1 if j == rank else 0
        coeffs.append([lead, -scale * poly[j]])
    doc = {"name": name, "rank": rank, "delta_coefficients": coeffs}
    if n0 is not None:
        doc["n0"] = n0
    return doc


FIXTURES: dict[str, dict] = {
    "quintic": hypergeometric_doc(
        "quintic", 5, [(5, 1), (5, 2), (5, 3), (5, 4)], n0=5),
    "x2222": hypergeometric_doc(
        "x2222", 16, [(2, 1), (2, 1), (2, 1), (2, 1)], n0=16),
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def fixture_operator(name: str) -> PFOperator:
    if name not in FIXTURES:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return load_operator(FIXTURES[name])
