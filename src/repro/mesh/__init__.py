"""Unstructured-capable hexahedral mesh substrate.

The paper's solver operates on FEM meshes of hexahedral spectral elements
(the Taylor-Green Vortex case uses a periodic box). This package provides:

- :mod:`repro.mesh.node_ordering` — local GLL node numbering inside a hex;
- :mod:`repro.mesh.hexmesh` — the :class:`HexMesh` container and structured
  periodic / non-periodic box generators;
- :mod:`repro.mesh.connectivity` — node-sharing multiplicity statistics;
- :mod:`repro.mesh.metrics` — element size and volume metrics;
- :mod:`repro.mesh.boundary` — boundary tagging and periodic image maps;
- :mod:`repro.mesh.partition` — element batching for streamed processing.
"""

from .hexmesh import (
    HexMesh,
    periodic_box_mesh,
    box_mesh,
    channel_mesh,
    elements_for_node_count,
)
from .node_ordering import local_node_index, local_node_triplet
from .connectivity import shared_node_counts
from .metrics import element_volumes, element_min_spacing
from .boundary import BoundaryTag, tag_box_boundaries, periodic_image_map
from .partition import element_blocks, partition_elements_balanced

__all__ = [
    "HexMesh",
    "periodic_box_mesh",
    "box_mesh",
    "channel_mesh",
    "elements_for_node_count",
    "local_node_index",
    "local_node_triplet",
    "shared_node_counts",
    "element_volumes",
    "element_min_spacing",
    "BoundaryTag",
    "tag_box_boundaries",
    "periodic_image_map",
    "element_blocks",
    "partition_elements_balanced",
]
