"""Acceptance suite: one test per criterion, at full scale, with the stated
runtime budgets enforced.  Each test prints a PASS/FAIL line so the suite
doubles as a report (run with `pytest -s tests/test_acceptance.py`)."""

import time

import pytest

from unicomplex import verify
from unicomplex.shelling import is_shifted
from unicomplex.universal_fp import UniversalKind, build_universal


@pytest.fixture(scope="module")
def ws():
    return verify.Workspace()


def _run(name, fn, ws, budget_seconds=None, **kwargs):
    started = time.monotonic()
    ok, detail = fn(ws, **kwargs)
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, detail
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{name} took {elapsed:.1f}s, budget {budget_seconds}s"
        )


def test_criterion_01_fvector_formula_vs_enumeration(ws):
    _run("01 f-vectors", verify.criterion_1, ws, budget_seconds=60)


def test_criterion_02_link_formulas(ws):
    _run("02 link f-vectors", verify.criterion_2, ws)


def test_criterion_03_recurrences(ws):
    _run("03 recurrences", verify.criterion_3, ws)


def test_criterion_04_morse_matchings(ws):
    _run("04 Morse matchings", verify.criterion_4, ws, budget_seconds=120)


def test_criterion_05_wedge_homology(ws):
    _run("05 wedge homology", verify.criterion_5, ws)


def test_criterion_06_reisner(ws):
    _run("06 Reisner", verify.criterion_6, ws)


def test_homology_criteria_compute_each_profile_once(monkeypatch):
    # criterion 5 reads the profiles of the workspace, and criterion 6
    # hands them to the Reisner check
    real = verify.homology.reduced_homology
    small = verify.Workspace(fp_pairs=((2, 2), (2, 3), (3, 2)))
    built = {id(small.built(kind)) for kind in small.kinds()}
    calls = []

    def counting(K):
        calls.append(id(K))
        return real(K)

    monkeypatch.setattr(verify.homology, "reduced_homology", counting)
    assert verify.criterion_5(small)[0] and verify.criterion_6(small)[0]
    assert sorted(c for c in calls if c in built) == sorted(built)


def test_criterion_07_shellings_and_shiftedness(ws):
    _run("07 shellings/shifted", verify.criterion_7, ws)
    # the stated bound: shiftedness on 8 vertices in under 30 s
    started = time.monotonic()
    ok, _ = is_shifted(build_universal(UniversalKind("X", 3, 2)))
    assert not ok
    assert time.monotonic() - started < 30


def test_criterion_08_buchstaber(ws):
    _run("08 Buchstaber", verify.criterion_8, ws)


def test_criterion_09_zlattice(ws):
    _run("09 Z-lattice", verify.criterion_9, ws, budget_seconds=60)


def test_criterion_10_quasitoric(ws):
    _run("10 quasitoric pairs", verify.criterion_10, ws)


def test_criterion_11_bhargava(ws):
    _run("11 Bhargava", verify.criterion_11, ws, budget_seconds=30)


def test_criterion_12_boundary_documented(ws):
    _run("12 infinite-object boundary", verify.criterion_12, ws)
