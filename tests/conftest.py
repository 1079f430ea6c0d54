import numpy as np
import pytest

from zonofit import SymmetricPolygon


@pytest.fixture
def unit_square():
    return SymmetricPolygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])


def sampled_width(points, theta):
    """Width oracle: extent of a point cloud along u(theta) = (-sin, cos)."""
    u = np.array([-np.sin(theta), np.cos(theta)])
    p = np.asarray(points) @ u
    return p.max() - p.min()


@pytest.fixture
def regular_hexagon():
    k = np.arange(6) * (np.pi / 3.0) + 0.1
    return SymmetricPolygon(np.stack([np.cos(k), np.sin(k)], axis=1))
