"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _plain_power(t, alpha) -> np.ndarray:
    """``T^alpha = T_1^a1 .. T_d^ad`` as a plain loop of ``n x n`` products, ``T_d`` applied first."""
    out = np.eye(t.dim, dtype=np.complex128)
    for k in reversed(range(t.d)):
        for _ in range(alpha[k]):
            out = t.mats[k] @ out
    return out


@pytest.fixture(scope="session")
def power():
    """The oracle of the library's powers, which the orbit step builds: ``power(t, alpha)``."""
    return _plain_power
