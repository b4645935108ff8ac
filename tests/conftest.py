"""Shared helpers: seeded generators for the tests."""

import numpy as np
import pytest

from fpabench.rng import TESTING, stream_rng


def make_rng(actor: int = 0) -> np.random.Generator:
    return stream_rng(12345, TESTING, actor)


@pytest.fixture
def rng():
    return make_rng()
