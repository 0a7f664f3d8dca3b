"""Release criteria, one pass/fail check per criterion id."""

import pytest

from mingsim import acceptance, dynamics, ming, observable
from mingsim.bitlattice import shift_index


@pytest.mark.parametrize("criterion", acceptance.CRITERION_IDS)
def test_criterion(criterion):
    res = acceptance.run_criterion(criterion)
    print(f"{criterion} {'PASS' if res.passed else 'FAIL'} ({res.seconds:.1f}s): {res.detail}")
    assert res.passed, f"{criterion} failed: {res.detail}"


def test_fault_injection_isolated_to_a2(corrupted_generator_block):
    results = acceptance.run_all()
    failed = {r.criterion for r in results if not r.passed}
    assert failed == {"A2"}


def _two_sites_per_tick(monkeypatch):
    # two sites per tick is coprime to every prime n, so one full period
    # visits the same configurations and only partial horizons differ
    original = dynamics.evolve_combined
    monkeypatch.setattr(dynamics, "evolve_combined", lambda state, t: original(state, 2 * t))


def _windows_one_tick_late(monkeypatch):
    # at tick t the count reads the window of tick t - 1
    original = dynamics._revisit_count
    monkeypatch.setattr(
        dynamics, "_revisit_count",
        lambda index, cocked, horizon: original(shift_index(index, cocked.n, -1), cocked, horizon),
    )


def _strict_left_budget(monkeypatch):
    def contains(self, index):
        ls = self.left_size
        left_dev = ls - (index & ((1 << ls) - 1)).bit_count()
        return left_dev < self.budget and (index >> ls).bit_count() <= self.budget

    monkeypatch.setattr(observable.CockedSet, "contains", contains)


def _first_column_off(monkeypatch):
    original = ming._first_column

    def first_column(length, h):
        c = original(length, h)
        c[0] *= 1.001
        return c

    monkeypatch.setattr(ming, "_first_column", first_column)


@pytest.mark.parametrize(
    "mutant, caught_by",
    [
        (None, set()),
        (_two_sites_per_tick, {"A8"}),
        (_windows_one_tick_late, {"A8"}),
        (_strict_left_budget, {"A8"}),
        (_first_column_off, {"A2"}),
    ],
    ids=["clean", "two-sites-per-tick", "windows-one-tick-late", "strict-left-budget", "first-column-off"],
)
def test_mutation_matrix(monkeypatch, mutant, caught_by):
    # each broken kernel fails the criterion that targets it and no other
    # of the two; the clean row passes both
    if mutant is not None:
        mutant(monkeypatch)
    failed = {c for c in ("A2", "A8") if not acceptance.run_criterion(c).passed}
    assert failed == caught_by
