"""Acceptance suite: one test per classification-theorem criterion.

Each test runs the corresponding exhaustive check at its full bounds,
prints a single pass/fail line, and asserts zero failures (all statements
are exact theorems; there are no tolerances) within the stated time budget.
Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import sys

from epshift import verify
from epshift.sequences import anomaly_size, least_period
from epshift.sturmian import Frequency, SturmianSpec, TYPE_S, skew_sturmian

BOUNDS = verify.VerifyBounds()
SEED = 0


def report(num: int, chk: verify.TheoremCheck, budget: float, checked: int) -> None:
    line = (
        f"criterion {num}: {chk.status.upper()}  [{chk.tag}]  "
        f"{chk.checked} instances in {chk.seconds:.2f}s (budget {budget:.0f}s)"
    )
    print(line, file=sys.stderr)
    assert not chk.failures, chk.failures[:5]
    assert chk.seconds < budget, f"{chk.tag} exceeded its time budget"
    # a check that silently skipped instances would still report no failures
    assert chk.checked == checked, f"{chk.tag} checked {chk.checked}, expected {checked}"


def test_criterion_1_restricted_bezout_oracle():
    report(1, verify.check_bezout_oracle(BOUNDS.bezout_sum), 1.0, 12231)


def test_criterion_2_anomaly_size_formula():
    report(2, verify.check_anomaly_size_formula(BOUNDS.formula_sum), 30.0, 398)


def test_criterion_3_spot_values():
    report(3, verify.check_spot_values(), 5.0, 4)
    # frozen expectations, double-checked directly
    for q, p, per, size in ((1, 1, 2, 1), (1, 2, 3, 1), (2, 5, 7, 4), (3, 5, 8, 3)):
        x = skew_sturmian(SturmianSpec(Frequency.rational(q, p), TYPE_S))
        assert (least_period(x), anomaly_size(x)) == (per, size)


def test_criterion_4_window_lemmas():
    report(4, verify.check_window_lemmas(BOUNDS, SEED), 30.0, 2610)


def test_criterion_5_conjugacy_theorem_witnesses():
    report(5, verify.check_conjugacy_witnesses(BOUNDS, SEED), 60.0, 2645)


def test_criterion_6_conjugacy_class_corollary():
    report(6, verify.check_conjugacy_classes(BOUNDS.corollary_sum), 60.0, 65536)


def test_criterion_7_flow_equivalence():
    report(7, verify.check_flow_witnesses(BOUNDS, SEED), 120.0, 4328)


def test_criterion_8_generator_cross_validation():
    report(8, verify.check_generator_crossval(BOUNDS.crossval_sum, BOUNDS.crossval_ms), 30.0, 1194)


def test_criterion_9_reciprocals():
    report(9, verify.check_reciprocals(BOUNDS.reciprocal_sum), 10.0, 127)
