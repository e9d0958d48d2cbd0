"""Byte-identity of the CLI: every command in every format on four operators.

Each invocation's stdout SHA-256 and exit code must equal the entry recorded
in golden.json.  Re-record with record_golden.py only when an output is meant
to change, and name the changed keys in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from mirrorint import cli, hypergeometric_doc

import helpers

GOLDEN_PATH = Path(__file__).with_name("golden.json")

FORMATS = {
    "solve": ("json", "text"),
    "mirror-map": ("json", "text"),
    "yukawa": ("json", "text"),
    "instantons": ("json", "csv", "text"),
    "certify": ("json", "text"),
    "report": ("json", "csv", "text"),
}

OPERATOR_DOCS = {
    "rand0_0": helpers.RAND0_0,
    "quintic1": hypergeometric_doc("quintic1", 1, [(5, 1), (5, 2), (5, 3), (5, 4)], n0=5),
}


def invocations(opdir):
    """(key, argv) for the whole matrix; operator files are written to opdir."""
    sources = {"quintic": ["--fixture", "quintic"], "x2222": ["--fixture", "x2222"]}
    for name, doc in OPERATOR_DOCS.items():
        path = Path(opdir) / f"{name}.json"
        path.write_text(json.dumps(doc))
        sources[name] = ["--operator", str(path)]
    for name, source in sources.items():
        for command, formats in FORMATS.items():
            extra = ["--order", "30"]
            if command in ("instantons", "certify", "report"):
                extra += ["--max-degree", "10"]
            if command in ("certify", "report"):
                extra += ["--prime-bound", "40"]
            for fmt in formats:
                yield (f"{name} {command} {fmt}",
                       [command, *source, *extra, "--format", fmt])
    yield "quintic report json order60", ["report", "--fixture", "quintic", "--order", "60"]


def run(argv):
    """(stdout SHA-256, exit code) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


def memoised_pipeline(monkeypatch):
    """Run each (operator, order, max degree) pipeline once across the matrix."""
    cache = {}
    real = cli.run_pipeline

    def cached(op, order, max_degree=None):
        key = (op.name, order, max_degree)
        if key not in cache:
            cache[key] = real(op, order, max_degree=max_degree)
        return cache[key]

    monkeypatch.setattr(cli, "run_pipeline", cached)


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    memoised_pipeline(monkeypatch)
    got = {key: run(argv) for key, argv in invocations(tmp_path)}
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert changed == [], changed
