from dataclasses import dataclass

import numpy as np
import pytest

from anisodiff.domain import AnisotropyParams, DomainBox


@dataclass(frozen=True)
class ConstantFlow:
    """The uniform drift u = (cx, cy), the tests' exact-translation reference.

    It stands in for a VelocityField wherever only `velocity` and `is_zero`
    are read: the solver, the upwind matrix, the particle steps, time_grid
    and divergence_residual.  Module level, so it pickles by reference.
    """

    cx: float
    cy: float

    @property
    def is_zero(self) -> bool:
        return self.cx == 0.0 and self.cy == 0.0

    def velocity(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(cx, cy) at the given coordinates, new arrays that the caller may
        overwrite."""
        return (np.full_like(np.asarray(x, dtype=float), self.cx),
                np.full_like(np.asarray(y, dtype=float), self.cy))


@pytest.fixture
def params23():
    return AnisotropyParams(p=2, q=3)


@pytest.fixture
def box64():
    return DomainBox(1.0, 1.0, 64, 64)


@pytest.fixture
def box128():
    return DomainBox(1.0, 1.0, 128, 128)
