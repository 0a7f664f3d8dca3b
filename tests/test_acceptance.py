"""Release criteria, one pass/fail check per criterion id."""

import pytest

from mingsim import acceptance, dynamics


@pytest.mark.parametrize("criterion", acceptance.CRITERION_IDS)
def test_criterion(criterion):
    res = acceptance.run_criterion(criterion)
    print(f"{criterion} {'PASS' if res.passed else 'FAIL'} ({res.seconds:.1f}s): {res.detail}")
    assert res.passed, f"{criterion} failed: {res.detail}"


def test_fault_injection_isolated_to_a2(corrupted_generator_block):
    results = acceptance.run_all()
    failed = {r.criterion for r in results if not r.passed}
    assert failed == {"A2"}


def test_a8_checks_horizons_inside_the_period(monkeypatch):
    # two sites per tick is coprime to every prime n, so one full period
    # visits the same configurations and only partial horizons differ
    original = dynamics.evolve_combined
    monkeypatch.setattr(dynamics, "evolve_combined", lambda state, t: original(state, 2 * t))
    assert not acceptance.run_criterion("A8").passed
