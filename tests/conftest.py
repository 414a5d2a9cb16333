"""Shared fixtures."""

import pytest

from catebounds.autodiff import Tensor


@pytest.fixture
def recorded(monkeypatch) -> list[bool]:
    """For every tape op run while the test runs, in order: whether the op
    recorded its result on the tape."""
    flags: list[bool] = []
    result = Tensor._result

    def counted(*args, **kwargs):
        out = result(*args, **kwargs)
        flags.append(out.requires_grad)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    return flags
