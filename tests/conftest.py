import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

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


def simd_level():
    """numpy's x86 kernel level at run time: "X86_V4" where its AVX-512 kernels are
    enabled, "X86_V3" where its AVX2 ones are the highest, "baseline" otherwise."""
    return next((level for level in ("X86_V4", "X86_V3") if __cpu_features__.get(level)), "baseline")


def pinned(digest):
    """``digest``, or where it holds one digest per :func:`simd_level`, the one of this run's level.

    numpy's exp, expm1 and log round some arguments differently in their AVX2
    and AVX-512 kernels, so a pin over their results is recorded per level; a
    level with none recorded fails, naming the level and numpy's version.
    """
    if isinstance(digest, str):
        return digest
    level = simd_level()
    if level not in digest:
        pytest.fail(f"no digest recorded at numpy {np.__version__}'s {level} kernel level (recorded: {', '.join(digest)})")
    return digest[level]
