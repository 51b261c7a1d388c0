"""Backend registry: name -> :class:`KernelBackend` factory.

The solver asks for a backend by name; the name comes from (in priority
order) an explicit argument, the ``SolverConfig.backend`` field, or the
``REPRO_BACKEND`` environment variable, falling back to ``"reference"``.
Third-party backends (numba, jax, ...) register themselves with
:func:`register_backend` and become selectable everywhere — examples,
experiments, co-simulation — without further wiring.
"""

from __future__ import annotations

import inspect
import os
from typing import Callable

from ..errors import ConfigurationError
from .base import KernelBackend

#: Environment variable consulted when no backend name is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The backend used when nothing selects one explicitly.
DEFAULT_BACKEND = "reference"

_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    overwrite: bool = False,
) -> None:
    """Register a backend factory under ``name`` (case-insensitive).

    ``factory`` is called anew for each :func:`get_backend` request, so
    stateful backends (workspace caches, compiled kernels) are private to
    each solver instance that resolves them.
    """
    key = str(name).strip().lower()
    if not key:
        raise ConfigurationError("backend name must be a non-empty string")
    if key in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"backend {key!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    _REGISTRY[key] = factory


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: str | None = None) -> str:
    """The backend name that ``get_backend(name)`` would instantiate.

    Explicit ``name`` wins; otherwise the ``REPRO_BACKEND`` environment
    variable; otherwise :data:`DEFAULT_BACKEND`.
    """
    if name is not None and str(name).strip():
        return str(name).strip().lower()
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return env.lower() if env else DEFAULT_BACKEND


def require_serial_workers(num_workers: int | None) -> None:
    """Reject any worker count but ``None`` or ``1``.

    Both built-in backends run serially, so a larger count would be
    silently dropped; raising keeps callers from believing they got
    parallelism they asked for.
    """
    if num_workers is not None and num_workers != 1:
        raise ConfigurationError(
            f"num_workers={num_workers!r} is not supported: the compute "
            "backends are serial; pass None or 1"
        )


def add_backend_argument(parser) -> None:
    """Attach the standard ``--backend`` flag to an argparse parser.

    Shared by the example scripts so the flag's spelling, default
    (``None`` = environment/default resolution), and help text have one
    source of truth. Pair with :func:`resolve_backend_name` on the
    parsed value.
    """
    parser.add_argument(
        "--backend",
        default=None,
        help=(
            "compute backend for the FEM hot path "
            f"({', '.join(available_backends())})"
        ),
    )


def _factory_accepts(factory: Callable, param: str) -> bool:
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    if param in params:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def get_backend(
    name: str | KernelBackend | None = None,
    *,
    precision=None,
) -> KernelBackend:
    """Instantiate the backend selected by ``name`` / env var / default.

    Accepts an already-constructed :class:`KernelBackend` and returns it
    unchanged, so call sites can take ``str | KernelBackend | None``
    uniformly. ``precision`` (a dtype-mode name or
    :class:`~repro.precision.modes.PrecisionPolicy`) is forwarded to
    factories that accept it and silently ignored by those that do not,
    so one call signature serves every backend.
    """
    if isinstance(name, KernelBackend):
        return name
    key = resolve_backend_name(name)
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown compute backend {key!r}; available backends: "
            f"{', '.join(available_backends()) or '(none)'}. Select one via "
            f"the `backend` argument / SolverConfig.backend, or the "
            f"{BACKEND_ENV_VAR} environment variable; add new ones with "
            "repro.backend.register_backend()."
        )
    kwargs = {}
    if precision is not None and _factory_accepts(factory, "precision"):
        kwargs["precision"] = precision
    backend = factory(**kwargs)
    if not isinstance(backend, KernelBackend):
        raise ConfigurationError(
            f"backend factory for {key!r} returned {type(backend).__name__}, "
            "which is not a KernelBackend"
        )
    return backend
