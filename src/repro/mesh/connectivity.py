"""Node-sharing statistics of the element-to-node table.

The node-sharing multiplicity determines how much gather/scatter traffic
the accelerator's LOAD and STORE stages generate; its histogram is a
structural invariant of the mesh generators.
"""

from __future__ import annotations

import numpy as np

from .hexmesh import HexMesh


def shared_node_counts(mesh: HexMesh) -> np.ndarray:
    """Histogram of node multiplicities (how many elements share a node).

    On a periodic structured hex mesh of order ``p``, interior nodes have
    multiplicity 1, face nodes 2, edge nodes 4, and vertex nodes 8; the
    histogram is a strong structural invariant used in tests.
    """
    mult = np.bincount(mesh.connectivity.ravel(), minlength=mesh.num_nodes)
    return np.bincount(mult)
