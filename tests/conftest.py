import numpy as np
import pytest
from hypothesis import settings

from volterra_feller import (
    CIRModel,
    ConstantKernel,
    JacobiModel,
    PowerModel,
    ScaleContext,
    SumOfExponentialsKernel,
)

# property tests run the same examples on every run, with no time limit
settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def unit_kernel():
    return ConstantKernel(1.0)


@pytest.fixture
def sloped_kernel():
    # K(t) = e^{-t}: K0 = 1, Kp0 = -1, completely monotone
    return SumOfExponentialsKernel([1.0], [1.0])


@pytest.fixture
def cir_111():
    return CIRModel(kappa=1.0, theta=1.0, sigma=1.0, x0=1.0)


@pytest.fixture
def jacobi_unit():
    return JacobiModel(a=0.0, b=1.0, kappa=1.0, theta=0.5, sigma=1.0, x0=0.5)


@pytest.fixture
def power_model():
    return PowerModel(alpha=1.5, delta=0.75, sigma=1.0, x0=1.0)


@pytest.fixture
def cir_ctx(cir_111, unit_kernel):
    return ScaleContext(cir_111, unit_kernel)


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, float):
        return f"{argname}={val}"
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
