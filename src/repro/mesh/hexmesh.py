"""Hexahedral spectral-element mesh container and box generators.

The Taylor-Green Vortex (TGV) problem that the paper evaluates lives on a
triply periodic cube ``[0, 2*pi]^3``. :func:`periodic_box_mesh` builds that
mesh; :func:`box_mesh` builds the non-periodic variant used to exercise
boundary handling. Both return a :class:`HexMesh`, the container consumed
by every other subsystem.

The container is deliberately *unstructured*: it stores an explicit
element-to-node connectivity table, so nothing downstream assumes a
structured grid — the generators here merely happen to produce one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MeshError
from ..fem.gll import gll_points
from .node_ordering import nodes_per_direction

TWO_PI = 2.0 * np.pi

#: Default TGV domain, one period of the vortex in each direction.
DEFAULT_DOMAIN = ((0.0, TWO_PI), (0.0, TWO_PI), (0.0, TWO_PI))


@dataclass
class HexMesh:
    """A mesh of hexahedral spectral elements.

    Attributes
    ----------
    polynomial_order:
        GLL polynomial order ``p``; every element has ``(p + 1)**3`` nodes.
    coords:
        ``(num_nodes, 3)`` physical coordinates of the unique global nodes.
    connectivity:
        ``(num_elements, (p + 1)**3)`` global node ids per element, ordered
        lexicographically (x fastest) as defined in
        :mod:`repro.mesh.node_ordering`.
    corner_coords:
        ``(num_elements, 8, 3)`` physical corner coordinates in VTK order.
        Stored explicitly because, on periodic meshes, corners of wrapping
        elements differ from the (wrapped) coordinates of their nodes.
    periodic:
        True when the mesh is periodic along *every* axis (shorthand used
        throughout; per-axis detail in :attr:`periodic_axes`).
    domain:
        Bounding box ``((x0, x1), (y0, y1), (z0, z1))``.
    periodic_axes:
        Per-axis periodicity ``(x, y, z)``. Channel meshes are periodic
        in x/y with walls in z.

    A mesh is never mutated after construction: derive a changed one
    with :func:`dataclasses.replace`, which starts it with an empty
    :meth:`derived` memo.
    """

    polynomial_order: int
    coords: np.ndarray
    connectivity: np.ndarray
    corner_coords: np.ndarray
    periodic: bool
    domain: tuple[tuple[float, float], ...] = DEFAULT_DOMAIN
    periodic_axes: tuple[bool, bool, bool] | None = None
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.connectivity = np.asarray(self.connectivity, dtype=np.int64)
        self.corner_coords = np.asarray(self.corner_coords, dtype=np.float64)
        if self.periodic_axes is None:
            self.periodic_axes = (self.periodic,) * 3
        if self.periodic != all(self.periodic_axes):
            raise MeshError(
                "periodic flag must equal all(periodic_axes); got "
                f"{self.periodic} vs {self.periodic_axes}"
            )
        n1 = nodes_per_direction(self.polynomial_order)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise MeshError(f"coords must be (N, 3), got {self.coords.shape}")
        if self.connectivity.ndim != 2 or self.connectivity.shape[1] != n1**3:
            raise MeshError(
                "connectivity must be (num_elements, "
                f"{n1 ** 3}), got {self.connectivity.shape}"
            )
        if self.corner_coords.shape != (self.num_elements, 8, 3):
            raise MeshError(
                f"corner_coords must be ({self.num_elements}, 8, 3), "
                f"got {self.corner_coords.shape}"
            )
        if self.connectivity.size and (
            self.connectivity.min() < 0 or self.connectivity.max() >= self.num_nodes
        ):
            raise MeshError("connectivity references nodes outside coords")

    # -- basic sizes -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of unique global nodes."""
        return int(self.coords.shape[0])

    @property
    def num_elements(self) -> int:
        """Number of hexahedral elements."""
        return int(self.connectivity.shape[0])

    @property
    def nodes_per_direction(self) -> int:
        """GLL nodes per element direction."""
        return self.polynomial_order + 1

    @property
    def nodes_per_element(self) -> int:
        """GLL nodes per element."""
        return self.nodes_per_direction**3

    # -- derived data ------------------------------------------------------

    def derived(self, name: str, build):
        """``build()``, computed once per mesh and kept under ``name``.

        For data that depends on the mesh alone (node coordinates per
        element, geometry, lumped mass, minimum GLL spacing), so every
        operator, simulation and co-simulation on one mesh shares one
        copy. ``name`` must identify what ``build`` computes. The arrays
        of the value (the value itself, or its attributes) are made
        read-only, since every caller shares them.
        """
        try:
            return self._memo[name]
        except KeyError:
            pass
        value = build()
        for array in (value, *getattr(value, "__dict__", {}).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        self._memo[name] = value
        return value

    def element_node_coords(self) -> np.ndarray:
        """Physical coordinates of each element's nodes.

        Returns a read-only array of shape
        ``(num_elements, nodes_per_element, 3)``, built once per mesh.
        On periodic meshes the coordinates are *unwrapped* so that every
        element is geometrically contiguous (a node on the wrap seam is
        reported at the element's side of the seam).
        """
        return self.derived("element_node_coords", self._element_node_coords)

    def _element_node_coords(self) -> np.ndarray:
        gathered = self.coords[self.connectivity]
        if any(self.periodic_axes):
            # Unwrap: shift any node that sits more than half a period away
            # from the element's minimum corner back into the element.
            lows = self.corner_coords.min(axis=1)  # (E, 3)
            for axis, (lo, hi) in enumerate(self.domain):
                if not self.periodic_axes[axis]:
                    continue
                period = hi - lo
                delta = gathered[:, :, axis] - lows[:, None, axis]
                wraps = delta < -1e-12
                gathered[:, :, axis] = np.where(
                    wraps, gathered[:, :, axis] + period, gathered[:, :, axis]
                )
        return gathered

    def validate(self) -> None:
        """Run structural sanity checks; raise :class:`MeshError` on failure."""
        counts = np.bincount(self.connectivity.ravel(), minlength=self.num_nodes)
        if (counts == 0).any():
            orphan = int(np.nonzero(counts == 0)[0][0])
            raise MeshError(f"node {orphan} is not referenced by any element")
        node_coords = self.element_node_coords()
        spans = node_coords.max(axis=1) - node_coords.min(axis=1)
        if (spans <= 0).any():
            raise MeshError("an element has zero extent along some axis")


def _gll_1d_grid(
    num_elements: int, polynomial_order: int, lo: float, hi: float, periodic: bool
) -> np.ndarray:
    """Unique 1D GLL node coordinates along one axis of a box mesh.

    Shared element endpoints are counted once. Periodic grids also drop the
    final endpoint (it is the image of the first node).
    """
    if num_elements < 1:
        raise MeshError("num_elements must be >= 1")
    if hi <= lo:
        raise MeshError(f"invalid 1D domain [{lo}, {hi}]")
    if periodic and num_elements * polynomial_order < 2:
        raise MeshError(
            "a periodic direction needs at least 2 unique grid points "
            f"(got {num_elements} element(s) of order {polynomial_order}); "
            "a single linear element would wrap onto itself"
        )
    p = polynomial_order
    xi = gll_points(p + 1)  # in [-1, 1]
    h = (hi - lo) / num_elements
    # p unique nodes per element (dropping each element's right endpoint),
    # then append the global right endpoint for non-periodic grids.
    starts = lo + h * np.arange(num_elements)
    within = (xi[:p] + 1.0) * 0.5 * h  # first p GLL offsets
    grid = (starts[:, None] + within[None, :]).ravel()
    if not periodic:
        grid = np.append(grid, hi)
    return grid


def _structured_connectivity(
    num_elements: int, polynomial_order: int, periodic: bool
) -> np.ndarray:
    """1D element-to-grid-index map of shape ``(num_elements, p + 1)``."""
    p = polynomial_order
    grid_size = num_elements * p + (0 if periodic else 1)
    base = p * np.arange(num_elements)[:, None] + np.arange(p + 1)[None, :]
    if periodic:
        base = base % grid_size
    return base


def _box_mesh_impl(
    elements_per_direction: int,
    polynomial_order: int,
    domain: tuple[tuple[float, float], ...],
    periodic_axes: tuple[bool, bool, bool],
) -> HexMesh:
    k = elements_per_direction
    p = polynomial_order
    n1 = p + 1
    if len(domain) != 3:
        raise MeshError("domain must provide three (lo, hi) pairs")

    grids = [
        _gll_1d_grid(k, p, lo, hi, periodic_axes[axis])
        for axis, (lo, hi) in enumerate(domain)
    ]
    sizes = [g.size for g in grids]
    gx_size, gy_size, gz_size = sizes

    # Global coordinates, z slowest (matches flattened global node id
    # gid = (gz * gy_size + gy) * gx_size + gx).
    zz, yy, xx = np.meshgrid(grids[2], grids[1], grids[0], indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)

    conn_1d = [
        _structured_connectivity(k, p, periodic_axes[axis])
        for axis in range(3)
    ]
    # Element ids: ez slowest. Build the (E, n1^3) connectivity by
    # broadcasting the three 1D maps.
    ex = np.arange(k)
    elem_x = conn_1d[0][ex]  # (k, n1)
    elem_y = conn_1d[1][ex]
    elem_z = conn_1d[2][ex]

    # gxs[e_x, i_x] etc.; combine into (k, k, k, n1, n1, n1) global ids with
    # local ordering x fastest.
    gx = elem_x[None, None, :, None, None, :]  # ez, ey, ex, iz, iy, ix
    gy = elem_y[None, :, None, None, :, None]
    gz = elem_z[:, None, None, :, None, None]
    gid = (gz * gy_size + gy) * gx_size + gx
    connectivity = gid.reshape(k * k * k, n1**3)

    # Corner coordinates (unwrapped): each element spans one h-cell.
    hs = [(hi - lo) / k for (lo, hi) in domain]
    los = [lo for (lo, _hi) in domain]
    ezz, eyy, exx = np.meshgrid(np.arange(k), np.arange(k), np.arange(k), indexing="ij")
    e_lo = np.stack(
        [
            los[0] + exx.ravel() * hs[0],
            los[1] + eyy.ravel() * hs[1],
            los[2] + ezz.ravel() * hs[2],
        ],
        axis=1,
    )  # (E, 3)
    # VTK corner order offsets in units of (hx, hy, hz).
    offsets = np.array(
        [
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (1, 1, 1),
            (0, 1, 1),
        ],
        dtype=np.float64,
    )
    corner_coords = e_lo[:, None, :] + offsets[None, :, :] * np.array(hs)[None, None, :]

    mesh = HexMesh(
        polynomial_order=p,
        coords=coords,
        connectivity=connectivity,
        corner_coords=corner_coords,
        periodic=all(periodic_axes),
        domain=tuple(tuple(pair) for pair in domain),
        periodic_axes=periodic_axes,
    )
    return mesh


def periodic_box_mesh(
    elements_per_direction: int,
    polynomial_order: int = 2,
    domain: tuple[tuple[float, float], ...] = DEFAULT_DOMAIN,
) -> HexMesh:
    """Triply periodic box mesh for the Taylor-Green Vortex problem.

    ``elements_per_direction ** 3`` hex elements with order-``p`` GLL nodes;
    the number of unique nodes is ``(elements_per_direction * p) ** 3``.
    """
    return _box_mesh_impl(
        elements_per_direction, polynomial_order, domain, (True, True, True)
    )


def box_mesh(
    elements_per_direction: int,
    polynomial_order: int = 2,
    domain: tuple[tuple[float, float], ...] = DEFAULT_DOMAIN,
) -> HexMesh:
    """Non-periodic box mesh (walls on all six faces)."""
    return _box_mesh_impl(
        elements_per_direction, polynomial_order, domain, (False, False, False)
    )


def channel_mesh(
    elements_per_direction: int,
    polynomial_order: int = 2,
    domain: tuple[tuple[float, float], ...] = DEFAULT_DOMAIN,
) -> HexMesh:
    """Channel mesh: periodic in x and y, solid walls in z.

    The wall-bounded configuration of the paper's motivating
    applications (flows over surfaces); used by the decaying shear-flow
    example, which has an analytic viscous solution.
    """
    return _box_mesh_impl(
        elements_per_direction, polynomial_order, domain, (True, True, False)
    )


def elements_for_node_count(num_nodes: int, polynomial_order: int = 2) -> int:
    """Element count of a fully periodic hex mesh with ``num_nodes`` nodes.

    On a periodic box of order ``p`` every element contributes exactly
    ``p**3`` unique nodes (the seam nodes wrap), so ``E = N / p**3``
    (rounded, floored at one element). Shared by the workload
    characterization and the accelerator timing models so both price the
    same mesh arithmetic.
    """
    if num_nodes < 1:
        raise MeshError("num_nodes must be >= 1")
    return max(1, round(num_nodes / polynomial_order**3))
