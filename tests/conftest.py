"""Shared fixtures."""

import dataclasses

import pytest

from mingsim import ming


@pytest.fixture
def corrupted_generator_block(monkeypatch):
    """Every later ming.build_block call returns a block with 1e-6 added to
    entries[0, 0], which breaks the cycle exponential that A2 checks."""
    original = ming.build_block

    def corrupted(n, h):
        block = original(n, h)
        entries = block.entries.copy()
        entries[0, 0] += 1e-6
        return dataclasses.replace(block, entries=entries)

    monkeypatch.setattr(ming, "build_block", corrupted)
