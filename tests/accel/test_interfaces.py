"""Array-to-AXI assignment (Fig. 4) and interface reuse."""

import pytest

from repro.accel.interfaces import (
    assign_interfaces,
    single_interface_assignment,
)
from repro.errors import FPGAError
from repro.fpga.axi import MemoryPort


def gport(name):
    return MemoryPort(
        array=name, pattern="gather", values_per_iter=27, accesses_per_iter=27
    )


def sport(name):
    return MemoryPort(array=name, pattern="stream", values_per_iter=27)


def _interface_of(assignment, array):
    """The one interface that carries ``array``."""
    (iface,) = [
        iface
        for iface, ports in assignment.assignment.items()
        if any(p.array == array for p in ports)
    ]
    return iface


class TestAssignment:
    def test_independent_tasks_reuse_interfaces(self):
        """Load and store are mutually exclusive (paper's reuse): their
        arrays may share interfaces, so 2 interfaces suffice for 4 arrays."""
        assignment = assign_interfaces(
            {
                "load": [gport("a"), gport("b")],
                "store": [sport("x"), sport("y")],
            },
            concurrent_tasks=[],
            max_interfaces=2,
        )
        assert assignment.num_interfaces <= 2

    def test_concurrent_tasks_conflict(self):
        """Concurrent tasks' arrays must not share an interface."""
        assignment = assign_interfaces(
            {
                "load": [gport("a")],
                "store": [sport("x")],
            },
            concurrent_tasks=[("load", "store")],
            max_interfaces=4,
        )
        assert _interface_of(assignment, "a") != _interface_of(assignment, "x")

    def test_conflict_overflow_raises(self):
        with pytest.raises(FPGAError):
            assign_interfaces(
                {
                    "t1": [gport("a")],
                    "t2": [gport("b")],
                },
                concurrent_tasks=[("t1", "t2")],
                max_interfaces=1,
            )

    def test_balanced_loads(self):
        """Five equal gathers over four interfaces: the worst interface
        carries exactly two."""
        assignment = assign_interfaces(
            {"load": [gport(f"a{i}") for i in range(5)]},
            concurrent_tasks=[],
            max_interfaces=4,
        )
        sizes = sorted(len(p) for p in assignment.assignment.values())
        assert sizes == [1, 1, 1, 2]

    def test_ports_for_task_restriction(self):
        load_ports = [gport("a"), gport("b")]
        store_ports = [sport("x")]
        assignment = assign_interfaces(
            {"load": load_ports, "store": store_ports},
            concurrent_tasks=[],
            max_interfaces=3,
        )
        restricted = assignment.ports_for_task(load_ports)
        names = {p.array for ports in restricted.values() for p in ports}
        assert names == {"a", "b"}

    def test_unrequested_array_gets_no_interface(self):
        assignment = assign_interfaces(
            {"load": [gport("a")]}, concurrent_tasks=[], max_interfaces=2
        )
        carried = {
            p.array for ports in assignment.assignment.values() for p in ports
        }
        assert carried == {"a"}

    def test_repeated_array_keeps_last_port_and_task(self):
        first = gport("a")
        last = MemoryPort(array="a", pattern="stream", values_per_iter=27)
        assignment = assign_interfaces(
            {"load": [first], "store": [last]},
            concurrent_tasks=[],
            max_interfaces=2,
        )
        (iface,) = assignment.assignment
        assert assignment.assignment[iface] == [last]
        assert assignment.task_interfaces == {"store": {iface}}

    def test_repeated_array_keeps_first_position(self):
        """Equal-traffic arrays color in first-seen order, so a repeat of
        ``a`` after ``b`` and ``c`` still takes the first interface."""
        assignment = assign_interfaces(
            {"load": [sport("a"), sport("b")], "store": [sport("c"), sport("a")]},
            concurrent_tasks=[],
            max_interfaces=3,
        )
        assert [
            (iface, [p.array for p in ports])
            for iface, ports in assignment.assignment.items()
        ] == [("gmem_1", ["a"]), ("gmem_2", ["b"]), ("gmem_3", ["c"])]

    def test_concurrent_pair_order_is_irrelevant(self):
        ports = {"load": [gport("a"), gport("b")], "store": [sport("x")]}
        forward = assign_interfaces(ports, [("load", "store")], 3)
        backward = assign_interfaces(ports, [("store", "load")], 3)
        assert forward == backward
        assert _interface_of(forward, "x") not in {
            _interface_of(forward, "a"),
            _interface_of(forward, "b"),
        }

    def test_array_shared_by_concurrent_tasks_does_not_self_conflict(self):
        assignment = assign_interfaces(
            {"load": [gport("a")], "store": [sport("a")]},
            concurrent_tasks=[("load", "store")],
            max_interfaces=1,
        )
        assert assignment.num_interfaces == 1

    def test_interface_prefix_names_bundles(self):
        assignment = assign_interfaces(
            {"load": [gport("a"), gport("b")]},
            concurrent_tasks=[],
            max_interfaces=2,
            interface_prefix="hbm",
        )
        assert sorted(assignment.assignment) == ["hbm_1", "hbm_2"]
        assert assignment.task_interfaces == {"load": {"hbm_1", "hbm_2"}}

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(FPGAError, match="max_interfaces"):
            assign_interfaces({"load": [gport("a")]}, [], max_interfaces=0)


class TestSingleInterface:
    def test_everything_shares_gmem(self):
        assignment = single_interface_assignment(
            {"load": [gport("a"), gport("b")], "store": [sport("x")]}
        )
        assert assignment.num_interfaces == 1
        assert len(assignment.assignment["gmem"]) == 3
