import numpy as np
import pytest

from beambvp.grid import GridFunction


def test_constructor_validates_length():
    with pytest.raises(ValueError):
        GridFunction(10, np.zeros(10))


def test_constructor_rejects_nonfinite():
    values = np.zeros(11)
    values[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(10, values)


def test_constructor_copies_input():
    values = np.ones(11)
    gf = GridFunction(10, values)
    values[0] = 5.0  # caller's array stays writable and detached
    assert gf.values[0] == 1.0
    with pytest.raises(ValueError):
        gf.values[0] = 2.0  # stored values are frozen


def test_grid_geometry():
    gf = GridFunction.constant(0.0, 4)
    assert gf.h == 0.25
    assert np.array_equal(gf.ts, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_norms_and_flags():
    gf = GridFunction(4, np.array([0.0, -0.5, 2.0, 1.0, 0.25]))
    assert gf.sup_norm() == 2.0
    assert gf.min() == -0.5


def test_constant():
    assert GridFunction.constant(3.0, 5).values.tolist() == [3.0] * 6
