import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "permitmc",
    deadline=None,
    max_examples=int(os.environ.get("PERMITMC_HYPOTHESIS_EXAMPLES", "60")),
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("permitmc")

from permitmc.fixtures import load_fixture  # noqa: E402
from strategies import deep_chain  # noqa: E402


@pytest.fixture(scope="session")
def deep_formula():
    """One seeded formula 10^5 levels deep, mixing every node kind; built
    once, as building it costs about a second."""
    return deep_chain(7)


@pytest.fixture(scope="session")
def fig1():
    return load_fixture("fig1-wa").model


@pytest.fixture(scope="session")
def fig2():
    return load_fixture("fig2-we").model


@pytest.fixture(scope="session")
def fig3():
    return load_fixture("fig3-se").model


@pytest.fixture(scope="session")
def fig4():
    return load_fixture("fig4-sa").model
