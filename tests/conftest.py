import numpy as np
import pytest

from dynact.config import default_config
from dynact.grid import make_grid
from dynact.phantom import Ellipse

from oracles import RectangleDomain


def pytest_configure(config):
    # any warning fails a test here, e.g. the ResourceWarning of a file left
    # open; set for tests/ only, as perfbench's self-test still reads its
    # spans file without closing it
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def thorax_config():
    return default_config()


@pytest.fixture(scope="session")
def unit_square_grid():
    """11x11-node interior on an aligned unit square (no ghosts)."""
    coords = np.linspace(-0.125, 1.125, 11)
    return make_grid(coords, coords, RectangleDomain(0.0, 1.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def ellipse_grid_65():
    coords = np.linspace(-1.0, 1.0, 65)
    return make_grid(coords, coords, Ellipse(center=(0.0, 0.0), semi_axes=(0.75, 0.55)))

