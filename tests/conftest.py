"""Fixtures that several test modules share."""
import pytest

from hypermaps.recursion import Recursion


@pytest.fixture(scope="session")
def wide_recursions():
    """Recursion(N, 2, 3) for N = 2, 3, the TR engine of criterion 1's
    grid and of the wide crosscheck, built once for every test that only
    reads its tensors."""
    return {N: Recursion(N, 2, 3) for N in (2, 3)}
