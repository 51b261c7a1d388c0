"""The library runs on NumPy alone: networkx is not a dependency.

The graph queries behind the paper's TLP validity rules (topological
order, reachability, acyclicity) and the interface-conflict colouring
are plain Python. The subprocess blocks ``networkx`` outright, so any
import of it, eager or lazy, fails the run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    sys.modules["networkx"] = None

    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)

    from repro.accel.interfaces import assign_interfaces
    from repro.dataflow import DataflowGraph, Task, exact_cycles
    from repro.dataflow.buffer import pipo
    from repro.fpga.axi import MemoryPort

    graph = DataflowGraph("fork-join")
    for name in ("a", "b1", "b2", "c"):
        graph.add_task(Task(name, 3))
    for prod, cons in (("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c")):
        graph.add_buffer(pipo(f"{prod}_{cons}", prod, cons))
    graph.validate()
    assert exact_cycles(graph, 4) > 0

    ports = {
        "load": [MemoryPort("u", "gather", 27, 27), MemoryPort("x", "stream", 81)],
        "store": [MemoryPort("r", "gather", 27, 27, is_write=True)],
    }
    assignment = assign_interfaces(ports, [("load", "store")], 3)
    assert assignment.num_interfaces >= 2
    print("ok")
    """
)


def test_library_runs_with_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
