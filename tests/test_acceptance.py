"""Acceptance battery, one test per criterion at full scale.

Each test prints a single PASS/FAIL line with the criterion's diagnostics so
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
from dataclasses import asdict

import pytest

from lueders.suite import CRITERIA, FULL, run_criterion


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    result = run_criterion(cid, FULL)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.id}: {result.description} | {json.dumps(result.details)}")
    assert result.passed, json.dumps(asdict(result), indent=2)
