"""Pluggable interconnect fabrics: topologies, routing, registry.

The fabric subsystem makes the interconnect a declarative axis of the
hardware template (the paper's Sec VI-B2 generality study, where the
mesh is swapped for a folded torus): a serializable
:class:`~repro.fabric.spec.FabricSpec` rides on ``ArchConfig``, the
:class:`~repro.fabric.base.Topology` protocol names the surface every
evaluation layer consumes, and :func:`build_topology` dispatches the
spec through the registry.  Shipped fabrics: ``mesh`` (the default),
``folded-torus``, ``cmesh`` (concentrated mesh) and ``ring``; shipped
routing policies: ``xy``, ``yx`` and ``dimension-reversal``.
"""

from repro.fabric.base import (
    BaseTopology,
    Link,
    NodeId,
    Topology,
    clear_route_tables,
)
from repro.fabric.cmesh import ConcentratedMeshTopology
from repro.fabric.mesh import GridTopology, MeshTopology
from repro.fabric.registry import (
    FABRIC_REGISTRY,
    apply_fabric,
    build_topology,
    fabric_kinds,
    parse_fabric,
    register_fabric,
)
from repro.fabric.ring import RingTopology
from repro.fabric.spec import (
    DEFAULT_FABRIC,
    ROUTING_POLICIES,
    FabricSpec,
    fabric_from_dict,
    fabric_to_dict,
    format_fabric,
)
from repro.fabric.torus import FoldedTorusTopology

__all__ = [
    "BaseTopology",
    "ConcentratedMeshTopology",
    "DEFAULT_FABRIC",
    "FABRIC_REGISTRY",
    "FabricSpec",
    "FoldedTorusTopology",
    "GridTopology",
    "Link",
    "MeshTopology",
    "NodeId",
    "ROUTING_POLICIES",
    "RingTopology",
    "Topology",
    "apply_fabric",
    "build_topology",
    "clear_route_tables",
    "fabric_from_dict",
    "fabric_kinds",
    "fabric_to_dict",
    "format_fabric",
    "parse_fabric",
    "register_fabric",
]
