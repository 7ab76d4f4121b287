"""Acceptance criteria, one test per criterion.

Each criterion runs the matching check of `skkinv.selftest`, the suites that
`skkinv selftest` runs, and asserts that it passed; the check's witness is
the failure message. All arithmetic is exact, so every comparison is
equality with zero tolerance; the only inexact bounds are the stated
wall-clock limits. Each criterion prints a pass line (visible with pytest
-s); a failed assertion stops the line from printing.
"""

import time

from skkinv import selftest

SEED = 20170831


def _passes(check, *args) -> float:
    """Run one check, assert that it passed; return its wall-clock seconds."""
    start = time.perf_counter()
    result = check(*args)
    assert result.passed, result.witness
    return time.perf_counter() - start


def _report(number: int, text: str):
    print(f"[PASS] criterion {number:2d}: {text}")


def test_criterion_01_homology_fixtures():
    elapsed = _passes(selftest.homology_fixtures)
    assert elapsed < 1.0, f"homology fixtures took {elapsed:.2f}s"
    _report(1, f"homology fixtures exact in {elapsed:.3f}s")


def test_criterion_02_sk_classification():
    elapsed = _passes(selftest.sk_classification)
    assert elapsed < 30.0, f"classification took {elapsed:.2f}s"
    _report(2, f"sk classes (1,0) and (1,1) in {elapsed:.3f}s")


def test_criterion_03_i_n_table():
    _passes(selftest.i_n_table)
    _report(3, "I_n table reproduced for n = 1..12")


def test_criterion_04_cutpaste_invariance():
    elapsed = _passes(selftest.cutpaste_chi_invariance, SEED)
    assert elapsed < 1.0, f"200 sequences took {elapsed:.2f}s"
    _report(4, f"200 cut/paste sequences chi-invariant in {elapsed:.3f}s")


def test_criterion_05_skk_error_term():
    _passes(selftest.skk_error_term, SEED + 1)
    _report(5, "500 error-term quadruples exact")


def test_criterion_06_tqft_axiom_suite():
    elapsed = (_passes(selftest.tqft_axiom_grid, SEED)
               + _passes(selftest.closed_value_law, SEED + 2))
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    _report(6, f"axioms and closed-value law on 25 grid points in {elapsed:.2f}s")


def test_criterion_07_kernel_theorem():
    _passes(selftest.kernel_theorem, SEED + 3)
    _report(7, "kernel point (2, 1/2) and kernel = trivial-restriction on the grid")


def test_criterion_08_boundary_dependence():
    _passes(selftest.boundary_dependence, SEED + 4)
    _report(8, "kernel TQFT values depend on arities only, matching cup**(in-out)")


def test_criterion_09_theta_multiplicativity():
    _passes(selftest.theta_multiplicativity, SEED + 5)
    _report(9, "exp(chi) multiplicative in dim 2; dim 1 fails on the arc gluing")


def test_criterion_10_lemma_relation():
    elapsed = _passes(selftest.lemma_relation, SEED + 6)
    assert elapsed < 1.0, f"300 triples took {elapsed:.2f}s"
    _report(10, f"three-piece relation for chi on glued surfaces, 300 triples in {elapsed:.3f}s")


def test_criterion_11_split_sequence():
    elapsed = _passes(selftest.split_sequence, SEED + 7)
    assert elapsed < 5.0, f"sequence checks took {elapsed:.2f}s"
    _report(11, f"split sequence checks on the 9x9 grid in {elapsed:.2f}s")


def test_criterion_12_bsigma_demo():
    _passes(selftest.bsigma_demo)
    _report(12, "capping demo gives 1 and exp(10)")


def test_criterion_13_negative_controls():
    _passes(selftest.negative_controls, SEED + 8)
    _report(13, "corrupted TQFT and corrupted splitting are caught")
