from __future__ import annotations

import pytest

from oit import example_instance

# load_script is imported from here by the acceptance gate.
from .paths import FIXTURES, load_script  # noqa: F401


@pytest.fixture
def ex1():
    return example_instance()


@pytest.fixture
def fixtures_dir():
    return FIXTURES
