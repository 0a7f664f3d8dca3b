"""Release criteria, one pass/fail check per criterion id."""

import pytest

from mingsim import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERION_IDS)
def test_criterion(criterion):
    res = acceptance.run_criterion(criterion)
    print(f"{criterion} {'PASS' if res.passed else 'FAIL'} ({res.seconds:.1f}s): {res.detail}")
    assert res.passed, f"{criterion} failed: {res.detail}"


def test_fault_injection_isolated_to_a2(corrupted_generator_block):
    results = acceptance.run_all()
    failed = {r.criterion for r in results if not r.passed}
    assert failed == {"A2"}
