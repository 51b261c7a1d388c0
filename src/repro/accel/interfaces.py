"""Array-to-AXI-interface assignment (paper Section III-C, Fig. 4).

Two cooperating optimizations:

1. **Per-array assignment** — arrays accessed by the *same* task are
   spread over distinct interfaces so their transfers proceed in
   parallel ("we schedule memory accesses concurrently by assigning
   them to separate AXI interfaces");
2. **Interface reuse** — arrays of *mutually exclusive* tasks (e.g. the
   LOAD-Element and STORE-Element-Contribution loops, which never run on
   the same data concurrently within an interface slot) may share an
   interface without contention ("interface reuse for arrays accessed by
   different tasks during successive steps of the algorithm").

Formally this is coloring of a conflict graph: vertices are arrays,
edges join arrays whose tasks can be simultaneously active on the
memory system; colors are interfaces. We color greedily in
largest-traffic-first order, balancing loads within a color.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FPGAError
from ..fpga.axi import MemoryPort


@dataclass
class InterfaceAssignment:
    """The result: interface name -> ports routed through it."""

    assignment: dict[str, list[MemoryPort]] = field(default_factory=dict)
    #: task name -> interfaces its arrays landed on
    task_interfaces: dict[str, set[str]] = field(default_factory=dict)

    @property
    def num_interfaces(self) -> int:
        return len(self.assignment)

    def ports_for_task(
        self, task_ports: list[MemoryPort]
    ) -> dict[str, list[MemoryPort]]:
        """Restrict the assignment to one task's ports (for cycle costing)."""
        names = {p.array for p in task_ports}
        out: dict[str, list[MemoryPort]] = {}
        for iface, ports in self.assignment.items():
            mine = [p for p in ports if p.array in names]
            if mine:
                out[iface] = mine
        return out


def _port_weight(port: MemoryPort) -> float:
    """Traffic proxy used to order and balance the coloring."""
    return max(port.values_per_iter, port.accesses_per_iter * 2.0)


def assign_interfaces(
    task_ports: dict[str, list[MemoryPort]],
    concurrent_tasks: list[tuple[str, str]],
    max_interfaces: int,
    interface_prefix: str = "gmem",
) -> InterfaceAssignment:
    """Assign every task's arrays to at most ``max_interfaces`` bundles.

    Parameters
    ----------
    task_ports:
        Task name -> the memory ports it drives.
    concurrent_tasks:
        Pairs of tasks that may be active on the memory system at the
        same time (within one task, all arrays always conflict). Tasks
        not listed together are mutually exclusive and may share
        interfaces freely — the paper's reuse optimization.
    max_interfaces:
        Hard cap (the shell's limit, or a design choice).

    Raises
    ------
    FPGAError
        If the conflict graph needs more colors than ``max_interfaces``.
    """
    if max_interfaces < 1:
        raise FPGAError("max_interfaces must be >= 1")
    # Conflict-graph vertices: array -> (port, task). An array listed
    # twice keeps its first position and its last port and task.
    nodes: dict[str, tuple[MemoryPort, str]] = {}
    for task, ports in task_ports.items():
        for port in ports:
            nodes[port.array] = (port, task)
    neighbors: dict[str, set[str]] = {array: set() for array in nodes}
    # Arrays of one task MAY share an interface — they merely serialize
    # (the cycle model prices that); hard conflicts exist only between
    # tasks that can drive the memory system simultaneously.
    concurrent = {frozenset(pair) for pair in concurrent_tasks}
    tasks = list(task_ports)
    for i, t1 in enumerate(tasks):
        for t2 in tasks[i + 1 :]:
            if frozenset((t1, t2)) not in concurrent:
                continue
            for p1 in task_ports[t1]:
                for p2 in task_ports[t2]:
                    if p1.array != p2.array:
                        neighbors[p1.array].add(p2.array)
                        neighbors[p2.array].add(p1.array)

    # Greedy balanced coloring, heaviest arrays first.
    ordered = sorted(nodes, key=lambda a: -_port_weight(nodes[a][0]))
    colors: dict[str, int] = {}
    color_load: dict[int, float] = {}
    for array in ordered:
        forbidden = {colors[nbr] for nbr in neighbors[array] if nbr in colors}
        candidates = [
            c for c in range(max_interfaces) if c not in forbidden
        ]
        if not candidates:
            raise FPGAError(
                f"cannot assign array {array!r}: all {max_interfaces} "
                "interfaces conflict (raise max_interfaces)"
            )
        best = min(candidates, key=lambda c: color_load.get(c, 0.0))
        colors[array] = best
        color_load[best] = color_load.get(best, 0.0) + _port_weight(
            nodes[array][0]
        )

    result = InterfaceAssignment()
    for array, color in colors.items():
        iface = f"{interface_prefix}_{color + 1}"
        port, task = nodes[array]
        result.assignment.setdefault(iface, []).append(port)
        result.task_interfaces.setdefault(task, set()).add(iface)
    return result


def single_interface_assignment(
    task_ports: dict[str, list[MemoryPort]], interface_name: str = "gmem"
) -> InterfaceAssignment:
    """Everything on one shared bundle — the Vitis default the paper's
    Fig. 4 optimization replaces."""
    result = InterfaceAssignment()
    all_ports: list[MemoryPort] = []
    for task, ports in task_ports.items():
        all_ports.extend(ports)
        result.task_interfaces.setdefault(task, set()).add(interface_name)
    result.assignment[interface_name] = all_ports
    return result
