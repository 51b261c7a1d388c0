"""Precision modes: storage and accumulation dtypes for the solver.

The paper's accelerator streams and computes in native single precision
while the functional reference solver runs float64. This module names
the three end-to-end precision modes the repository supports and the
resolution chain that selects one:

- ``"float64"`` — everything in f64: the validation oracle.
- ``"float32"`` — streams *and* accumulations in f32: device-faithful,
  including the non-associativity of the scatter reduction.
- ``"mixed"`` — f32 streams with f64 scatter/RK accumulators, matching
  the behaviour :func:`repro.fem.assembly.scatter_add` has always had
  for f32 inputs (accumulate wide, store narrow).

A mode resolves to a :class:`PrecisionPolicy` carrying two numpy dtypes:
``storage`` (what fields are streamed and stored as) and ``accumulate``
(what scatter-adds and RK stage combinations sum in). Selection
precedence mirrors the backend registry: explicit argument >
``REPRO_DTYPE`` environment variable > ``"float64"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

#: Environment variable consulted when no dtype mode is given.
DTYPE_ENV_VAR = "REPRO_DTYPE"

#: The canonical mode names, in documentation order.
DTYPE_MODES = ("float64", "float32", "mixed")

#: The mode used when nothing selects one explicitly.
DEFAULT_DTYPE = "float64"

#: Accepted spellings -> canonical mode name.
_ALIASES = {
    "float64": "float64",
    "f64": "float64",
    "fp64": "float64",
    "double": "float64",
    "float32": "float32",
    "f32": "float32",
    "fp32": "float32",
    "single": "float32",
    "mixed": "mixed",
}


def resolve_dtype(name: str | None = None) -> str:
    """The canonical precision mode selected by ``name`` / env / default.

    Explicit ``name`` wins; otherwise the ``REPRO_DTYPE`` environment
    variable; otherwise :data:`DEFAULT_DTYPE`. Raises
    :class:`~repro.errors.ConfigurationError` on an unknown mode.
    """
    value = name
    if value is None or not str(value).strip():
        env = os.environ.get(DTYPE_ENV_VAR, "").strip()
        value = env if env else DEFAULT_DTYPE
    key = str(value).strip().lower()
    mode = _ALIASES.get(key)
    if mode is None:
        raise ConfigurationError(
            f"unknown precision mode {value!r}; expected one of "
            f"{', '.join(DTYPE_MODES)} (or f32/f64 shorthand). Select one "
            f"via the `dtype` argument or the "
            f"{DTYPE_ENV_VAR} environment variable."
        )
    return mode


@dataclass(frozen=True)
class PrecisionPolicy:
    """Storage + accumulation dtypes implied by one precision mode.

    ``storage`` is the dtype fields are streamed, stored, and computed
    in; ``accumulate`` is the dtype scatter-adds and RK stage
    combinations sum in before narrowing back to storage. Float64
    inputs always accumulate in float64 regardless of policy (widening
    an oracle run is never wrong); see :meth:`accumulate_for`.
    """

    mode: str
    storage: np.dtype
    accumulate: np.dtype

    @classmethod
    def for_mode(cls, mode: str) -> "PrecisionPolicy":
        """The policy of a canonical mode name."""
        mode = resolve_dtype(mode)
        storage = np.dtype(np.float64 if mode == "float64" else np.float32)
        accumulate = np.dtype(
            np.float32 if mode == "float32" else np.float64
        )
        return cls(mode=mode, storage=storage, accumulate=accumulate)

    @classmethod
    def resolve(
        cls, value: "str | PrecisionPolicy | None" = None
    ) -> "PrecisionPolicy":
        """Coerce a mode name / policy / ``None`` into a policy.

        ``None`` follows the :func:`resolve_dtype` chain (environment
        variable, then the float64 default); an existing policy passes
        through unchanged.
        """
        if isinstance(value, PrecisionPolicy):
            return value
        return cls.for_mode(resolve_dtype(value))

    def accumulate_for(self, values_dtype) -> np.dtype:
        """Accumulation dtype for inputs of ``values_dtype``.

        Float64 values always accumulate in float64 — narrowing an
        oracle-precision reduction would silently change the baseline —
        so only f32 streams consult the policy's ``accumulate``.
        """
        dtype = np.dtype(values_dtype)
        if dtype == np.float64:
            return np.dtype(np.float64)
        return self.accumulate


#: The default (oracle) policy: everything float64.
FLOAT64_POLICY = PrecisionPolicy.for_mode("float64")


def add_dtype_argument(parser) -> None:
    """Attach the standard ``--dtype`` flag to an argparse parser.

    Shared by the example scripts so the flag's spelling, default
    (``None`` = environment/default resolution), and help text have one
    source of truth. Pair with :func:`resolve_dtype` on the parsed
    value.
    """
    parser.add_argument(
        "--dtype",
        default=None,
        help=(
            "precision mode for fields and accumulators "
            f"({', '.join(DTYPE_MODES)}); default: ${DTYPE_ENV_VAR} "
            "or float64"
        ),
    )
