import numpy as np
import pytest

from sheetcrystal import SheetArray, atomic_units


@pytest.fixture(scope="session")
def atomic():
    return atomic_units()


def random_stack(seed, fewest=2):
    """A seeded normalizable stack: fewest..24 sheets, gaps U(0.2, 2), densities U(-3, 3), positive total."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(fewest, 25))
    positions = np.cumsum(rng.uniform(0.2, 2.0, k))
    while True:
        densities = rng.uniform(-3.0, 3.0, k)
        if densities.sum() > 0.0:
            break
    return SheetArray(list(zip(positions.tolist(), densities.tolist())))
