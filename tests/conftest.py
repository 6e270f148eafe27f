import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gradiplate.model import Interval, ModelParams


@pytest.fixture
def unit_params() -> ModelParams:
    return ModelParams.unit()


@pytest.fixture
def pi_interval() -> Interval:
    return Interval(math.pi)
