"""Acceptance gate: every headline criterion at its documented tolerance.

Each case prints one [PASS]/[FAIL] line with the criterion id and its
one-line summary.  The heavyweight singular-field scenario is computed
once per process and shared by the moment, isometry, martingale and
Cauchy criteria.
"""

import pytest

from fbmlab.experiments import ALL_CRITERIA


@pytest.mark.parametrize("cid", list(ALL_CRITERIA), ids=list(ALL_CRITERIA))
def test_acceptance_criterion(cid):
    result = ALL_CRITERIA[cid]()
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"[{verdict}] {result['id']}: {result['summary']}")
    assert result["passed"], f"{result['id']}: {result['summary']}"
