"""Fixtures shared by several test modules."""

import pytest

from deepibp import model


@pytest.fixture
def spike_mass_too_high(monkeypatch):
    """Make the closed-form spike mass 1e-3 too high wherever it is read."""
    exact = model.spike_slab_predictive

    def wrong(m_minus, N, alpha_over_K):
        spike, slab = exact(m_minus, N, alpha_over_K)
        return spike + 1e-3, slab

    monkeypatch.setattr(model, "spike_slab_predictive", wrong)
