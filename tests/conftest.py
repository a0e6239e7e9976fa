import pytest

from beambvp import make_context, parse


@pytest.fixture(scope="session")
def ctx_t2():
    """Quadratic boundary weight, theta = 1/4: alpha = 1/3, beta = 13/96."""
    return make_context(parse("t^2", "t"))
