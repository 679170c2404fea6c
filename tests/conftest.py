import pytest
from hypothesis import settings

from rulebots.rules import load_stack
from rulebots.sim import load_map

# Property tests draw the same examples on every run, so a tier-1 result
# depends on the code alone.  `derandomize` also turns off the example
# database, which would otherwise replay earlier failures first.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def warehouse():
    return load_map("warehouse")


@pytest.fixture(scope="session")
def airplane():
    return load_map("airplane")


@pytest.fixture(scope="session")
def baseline_stack():
    return load_stack(["baseline"])


@pytest.fixture(scope="session")
def full_stack():
    return load_stack(["baseline", "cs_rules", "warehouse_tactics"])
