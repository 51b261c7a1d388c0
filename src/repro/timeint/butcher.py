"""Butcher tableaus for explicit Runge-Kutta schemes.

The paper uses RK4 ("known for its effective balance between accuracy and
computational efficiency"); alternates are provided for the convergence
tests, which verify each scheme's theoretical order on smooth ODEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TimeIntegrationError


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit Runge-Kutta scheme ``(A, b, c)``.

    ``A`` must be strictly lower triangular (explicit scheme); ``b`` are
    the combination weights (summing to 1 for consistency) and ``c`` the
    stage abscissae (row sums of ``A`` for a consistent internal scheme).
    """

    name: str
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    order: int = 1

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = b.size
        if a.shape != (s, s):
            raise TimeIntegrationError(
                f"tableau {self.name}: A must be ({s}, {s}), got {a.shape}"
            )
        if c.shape != (s,):
            raise TimeIntegrationError(
                f"tableau {self.name}: c must have {s} entries"
            )
        if np.any(np.triu(a) != 0.0):
            raise TimeIntegrationError(
                f"tableau {self.name}: A must be strictly lower triangular"
            )
        if abs(b.sum() - 1.0) > 1e-12:
            raise TimeIntegrationError(
                f"tableau {self.name}: weights must sum to 1, got {b.sum()}"
            )
        if np.max(np.abs(a.sum(axis=1) - c)) > 1e-12:
            raise TimeIntegrationError(
                f"tableau {self.name}: row sums of A must equal c"
            )

    @property
    def num_stages(self) -> int:
        """Number of RK stages."""
        return int(self.b.size)


FORWARD_EULER = ButcherTableau(
    name="forward-euler",
    a=np.zeros((1, 1)),
    b=np.array([1.0]),
    c=np.array([0.0]),
    order=1,
)

HEUN2 = ButcherTableau(
    name="heun2",
    a=np.array([[0.0, 0.0], [1.0, 0.0]]),
    b=np.array([0.5, 0.5]),
    c=np.array([0.0, 1.0]),
    order=2,
)

SSP_RK3 = ButcherTableau(
    name="ssp-rk3",
    a=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.0]]),
    b=np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]),
    c=np.array([0.0, 1.0, 0.5]),
    order=3,
)

#: The classical RK4 used by the paper.
RK4 = ButcherTableau(
    name="rk4",
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b=np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
    c=np.array([0.0, 0.5, 0.5, 1.0]),
    order=4,
)

#: Kutta's 3/8-rule fourth-order variant.
RK4_38 = ButcherTableau(
    name="rk4-3/8",
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.0 / 3.0, 0.0, 0.0, 0.0],
            [-1.0 / 3.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 1.0, 0.0],
        ]
    ),
    b=np.array([1.0 / 8.0, 3.0 / 8.0, 3.0 / 8.0, 1.0 / 8.0]),
    c=np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]),
    order=4,
)
