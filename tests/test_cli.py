"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mirrorint
from mirrorint import cli, hypergeometric_doc, picard_fuchs, run_pipeline, series
from mirrorint.cli import main

import helpers


def run_cli(*args):
    """Invoke main() in process, capturing output and exit code."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as e:  # argparse errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def nonintegral_operator_path(tmp_path_factory):
    # Hypergeometric operator whose instanton numbers acquire denominators
    # at degrees 3, 5, 7, ...; its KSV certificate fails for p = 5
    doc = hypergeometric_doc("h2211", 4, [(2, 1), (2, 1), (1, 1), (1, 1)], n0=2)
    path = tmp_path_factory.mktemp("ops") / "h2211.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_report_success(self):
        code, out, err = run_cli("report", "--fixture", "quintic",
                                 "--order", "50", "--prime-bound", "14")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["verdict"] == "CONSISTENT"

    def test_certify_default_order(self):
        code, out, err = run_cli("certify", "--fixture", "quintic",
                                 "--primes", "7")
        assert code == 0, err
        doc = json.loads(out)
        kinds = {c["kind"] for c in doc["certificates"]}
        assert kinds == {"dwork", "ksv", "gauge"}
        assert all(c["verdict"] == "pass" for c in doc["certificates"])

    def test_missing_operator_file(self):
        code, out, err = run_cli("mirror-map", "--operator", "missing.json")
        assert code == 2
        assert "MalformedSpec" in err

    def test_certificate_failure_exits_one(self, nonintegral_operator_path):
        code, out, err = run_cli("report", "--operator",
                                 nonintegral_operator_path,
                                 "--order", "12", "--max-degree", "4",
                                 "--primes", "5")
        assert code == 1, err
        doc = json.loads(out)
        assert doc["verdict"] == "INCONSISTENT"
        cert = doc["certificates"][0]
        assert cert["prime"] == 5
        assert cert["dwork"]["verdict"] == "pass"
        assert cert["ksv"]["verdict"] == "fail"
        assert cert["ksv"]["failure"]["index"] == 5

    def test_certify_failure_exits_one(self, nonintegral_operator_path):
        code, out, err = run_cli("certify", "--operator",
                                 nonintegral_operator_path,
                                 "--order", "12", "--max-degree", "4",
                                 "--primes", "5,7")
        assert code == 1, err

    def test_unknown_fixture(self):
        code, out, err = run_cli("solve", "--fixture", "nonesuch")
        assert code == 2
        assert "nonesuch" in err

    def test_operator_and_fixture_conflict(self):
        code, out, err = run_cli("solve", "--fixture", "quintic",
                                 "--operator", "x.json")
        assert code == 2

    def test_source_required(self):
        code, out, err = run_cli("solve")
        assert code == 2

    def test_order_must_exceed_max_degree(self):
        code, out, err = run_cli("instantons", "--fixture", "quintic",
                                 "--order", "8", "--max-degree", "16")
        assert code == 2
        assert "order" in err

    def test_prime_bound_below_rank_rejected(self):
        code, out, err = run_cli("report", "--fixture", "quintic",
                                 "--order", "20", "--prime-bound", "5")
        assert code == 2

    def test_prime_bound_above_cap_rejected(self):
        start = time.perf_counter()
        code, out, err = run_cli("certify", "--fixture", "quintic", "--order", "10",
                                 "--max-degree", "3", "--prime-bound", "20000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert str(cli.MAX_PRIME_BOUND) in err

    def test_order_above_cap_rejected(self):
        start = time.perf_counter()
        code, out, err = run_cli("mirror-map", "--fixture", "quintic", "--order", "1001")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert cli.MAX_ORDER == 1000 and "cap 1000" in err

    def test_short_prime_list_exits_two(self, monkeypatch):
        # at order 40 the reversion takes 10 primes for a t(q) of 413 bits:
        # one prime short still rebuilds it, and the check prime agrees; half
        # the list rebuilds wrong coefficients, which the check prime rejects
        # before anything is printed
        argv = ("mirror-map", "--fixture", "quintic", "--order", "40")
        want = run_cli(*argv)
        full = series._moduli_for
        monkeypatch.setattr(series, "_moduli_for",
                            lambda bound, den=1: full(bound, den)[:-1])
        assert run_cli(*argv) == want
        monkeypatch.setattr(series, "_moduli_for",
                            lambda bound, den=1: full(bound, den)[:len(full(bound, den)) // 2])
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "CRTMismatch" in err and "check prime" in err

    def test_malformed_primes_list(self):
        code, out, err = run_cli("certify", "--fixture", "quintic",
                                 "--primes", "7,abc")
        assert code == 2

    def test_large_prime_certifies_fast(self):
        start = time.perf_counter()
        code, out, err = run_cli("certify", "--fixture", "quintic", "--order", "10",
                                 "--max-degree", "3", "--primes", str(2 ** 61 - 1))
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        assert all(c["verdict"] == "pass" for c in json.loads(out)["certificates"])

    def test_prime_beyond_proven_range_rejected(self):
        limit = "3317044064679887385961981"
        code, out, err = run_cli("certify", "--fixture", "quintic", "--order", "10",
                                 "--max-degree", "3", "--primes", limit)
        assert code == 2 and out == ""
        assert "PrimeTooLarge" in err and limit in err

    def test_csv_rejected_for_series_commands(self):
        code, out, err = run_cli("mirror-map", "--fixture", "quintic",
                                 "--order", "8", "--format", "csv")
        assert code == 2


class TestBasisCheck:
    def test_planted_jet_fails_solve(self, monkeypatch):
        real = picard_fuchs._taylor_shift

        def planted(poly, x0, r):
            jet = real(poly, x0, r)
            if x0 == 3:
                jet[1] += 1
            return jet

        monkeypatch.setattr(picard_fuchs, "_taylor_shift", planted)
        code, out, err = run_cli("solve", "--fixture", "quintic", "--order", "8")
        assert code == 2
        assert "L(y_" in err
        assert out == ""

    def test_solve_builds_no_mirror_map(self, monkeypatch):
        def refuse(basis):
            raise AssertionError("solve prints no mirror map")

        monkeypatch.setattr(cli, "mirror_map", refuse)
        code, out, err = run_cli("solve", "--fixture", "quintic", "--order", "8")
        assert code == 0, err


class TestOutputs:
    def test_solve_json_structure(self):
        code, out, _ = run_cli("solve", "--fixture", "quintic", "--order", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["operator"] == "quintic"
        assert doc["rank"] == 4
        assert len(doc["g"]) == 4
        assert doc["monodromy"]["rank_profile"] == [4, 3, 2, 1, 0]

    def test_mirror_map_json(self):
        code, out, _ = run_cli("mirror-map", "--fixture", "quintic",
                               "--order", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["monodromy_index"] == 1
        coeffs = doc["q_of_t"]["coefficients"]
        assert coeffs[0] == "1/1" and coeffs[1] == "770/1"

    def test_yukawa_json(self):
        code, out, _ = run_cli("yukawa", "--fixture", "quintic",
                               "--order", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n0"] == "5/1"
        assert doc["w_t"]["coefficients"][:2] == ["5/1", "15625/1"]

    def test_instanton_csv_rows(self):
        code, out, _ = run_cli("instantons", "--fixture", "quintic",
                               "--order", "8", "--max-degree", "3",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,n_d,denominator_primes"
        assert lines[1] == "1,2875/1,"
        assert lines[2] == "2,609250/1,"
        assert lines[3] == "3,317206375/1,"
        assert len(lines) == 4

    def test_instanton_csv_denominator_column(self, nonintegral_operator_path):
        code, out, _ = run_cli("instantons", "--operator",
                               nonintegral_operator_path,
                               "--order", "8", "--max-degree", "3",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[3] == "3,80/27,3"

    def test_text_report_contract(self):
        code, out, _ = run_cli("report", "--fixture", "quintic",
                               "--order", "12", "--max-degree", "4",
                               "--primes", "7", "--format", "text")
        assert code == 0
        assert any(line.startswith("N_observed = ") for line in out.splitlines())
        assert "PASS" in out
        assert "CONSISTENT" in out

    def test_report_skips_recorded(self):
        code, out, _ = run_cli("report", "--fixture", "quintic",
                               "--order", "16", "--max-degree", "4",
                               "--prime-bound", "14")
        assert code == 0
        doc = json.loads(out)
        skipped = {row["prime"]: row["reason"] for row in doc["primes_skipped"]}
        assert 2 in skipped and 3 in skipped
        assert doc["primes_tested"] == [5, 7, 11, 13]

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "mm.json"
        code, out, _ = run_cli("mirror-map", "--fixture", "quintic",
                               "--order", "4", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["monodromy_index"] == 1

    def test_unwritable_out_is_an_error(self, tmp_path):
        code, out, err = run_cli("solve", "--fixture", "quintic",
                                 "--order", "4", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = ("report", "--fixture", "quintic", "--order", "20",
                "--max-degree", "5", "--primes", "7,11")
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(f1))[0] == 0
        assert run_cli(*args, "--out", str(f2))[0] == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        assert len(b1) > 200

    def test_byte_identical_csv(self):
        args = ("instantons", "--fixture", "x2222", "--order", "10",
                "--max-degree", "4", "--format", "csv")
        assert run_cli(*args)[1] == run_cli(*args)[1]


def test_random_operators_match_fraction_reference(tmp_path):
    # seeded rank-4 MUM operators whose q(t) has denominators: the kernel's
    # t(q) and Y(q) equal the Fraction references, the basis solves L, and
    # the report's bytes repeat
    rng = random.Random(20240513)
    for k in range(20):
        doc = helpers.random_operator_doc(rng, f"fuzz{k}")
        order = rng.randint(6, 20)
        op = picard_fuchs.load_operator(doc)
        result = run_pipeline(op, order)
        mm, y0 = result.mm, result.basis.holomorphic
        assert mm.t_of_q == helpers.fraction_reversion(mm.q_of_t)
        integrand = result.yukawa.w_t * (y0.pow_int(2) * mm.dlog_q.pow_int(3)).invert()
        assert result.yukawa.y_q == helpers.fraction_compose(
            integrand.truncate(order), mm.t_of_q.truncate(order + 1))
        assert all(picard_fuchs.residual(op, y).is_zero() for y in result.basis.solutions)
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        args = ("report", "--operator", str(path), "--order", str(order),
                "--max-degree", str(min(8, order - 1)), "--prime-bound", "30")
        first = run_cli(*args)
        assert first[0] in (0, 1) and first[2] == "", (doc, first)
        assert run_cli(*args) == first


def test_module_entry_point_subprocess():
    # the child does not inherit pytest's pythonpath setting, so hand it the
    # directory the package was imported from
    root = str(Path(mirrorint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorint.cli", "instantons", "--fixture",
         "quintic", "--order", "6", "--max-degree", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    rows = doc["instanton_numbers"]
    assert rows[0]["n"] == "2875/1"
    assert rows[1]["n"] == "609250/1"
