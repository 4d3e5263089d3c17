import numpy as np
import pytest

from nnapprox import ActivationParams, SymmetrizedDensity


@pytest.fixture(scope="session")
def default_params():
    return ActivationParams(2.0, 1.0, 1.0, mode="sigmoid")


@pytest.fixture(scope="session")
def default_density(default_params):
    return SymmetrizedDensity(default_params)


@pytest.fixture(scope="session")
def literal_density():
    return SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode="literal"))


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
