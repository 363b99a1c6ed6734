"""Shared fixtures."""

import pytest

from chargechain import ergodic, kernels


@pytest.fixture
def power_steps(monkeypatch) -> list[int]:
    """The size of the kernel at every step of ``kernels.powers``, which ``kernel_power``,
    ``cesaro_kernel`` and ``distance_series`` read."""
    steps = []
    original = kernels.powers

    def counted(kernel):
        for pair in original(kernel):
            steps.append(kernel.size)
            yield pair

    monkeypatch.setattr(kernels, "powers", counted)
    monkeypatch.setattr(ergodic, "powers", counted)
    return steps
