"""Every definition in ``src/`` has a caller, or is on a short allowlist.

A definition is a module-level function, class or constant, or a method
of a module-level class (dunders aside). It has a caller when some Name,
Attribute or imported name outside its own body spells it, anywhere in
``src/``, ``examples/``, ``perfbench/``, ``benchmarks/`` or ``tools/``.
Imports in ``__init__.py`` files are re-exports, not callers. Tests are
not callers either: code that only a test reaches is deleted with its
test, unless the test compares another path against it (an oracle).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "perfbench", "benchmarks", "tools")

ALLOWED = {
    # Oracles: a test compares the production path against each.
    "dataflow.analysis.sequential_cycles",
    "dataflow.analysis.steady_state_cycles",
    "fem.assembly.assembly_multiplicity",
    "fem.geometry.trilinear_shape",
    "fem.lagrange.lagrange_basis",
    "fem.quadrature.integrate_1d",
    "fem.quadrature.max_exact_degree",
    "fem.quadrature.monomial_integral",
    "mesh.boundary.periodic_image_map",
    "mesh.connectivity.shared_node_counts",
    "mesh.metrics.element_volumes",
    "mesh.node_ordering.local_node_index",
    "mesh.node_ordering.local_node_triplet",
    "physics.fluxes.combined_rhs_fluxes",
    "solver.workload.compute_convection_element",
    "solver.workload.compute_diffusion_element",
    # The ODE driver and the tableaux its observed-order test runs.
    "timeint.runge_kutta.rk_step",
    "timeint.butcher.FORWARD_EULER",
    "timeint.butcher.HEUN2",
    "timeint.butcher.SSP_RK3",
    "timeint.butcher.RK4_38",
    # Pipeline kernels, reached through their registering decorator.
    "pipeline.kernels._gather",
    "pipeline.kernels._convective_flux",
    "pipeline.kernels._viscous_flux",
    "pipeline.kernels._weak_divergence",
    "pipeline.kernels._scatter_add",
    "pipeline.kernels.single_pass_net_flux",
    "pipeline.rk_update._load_node_state",
    "pipeline.rk_update._load_node_derivs",
    "pipeline.rk_update._stage_axpy",
    "pipeline.rk_update._update_primitives",
    # Public builders for library users.
    "dataflow.buffer.fifo",
    "mesh.hexmesh.box_mesh",
    # The TGV dissipation check (Karp et al., arxiv 2108.12188) needs these.
    "physics.diagnostics.enstrophy",
    "physics.viscous.vorticity",
    "solver.navier_stokes.NavierStokesOperator.nodal_velocity_gradient",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, module):
    """``(qualified name, name, first line, last line)`` of each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_dunder(node.name):
                yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not _is_dunder(sub.name):
                        qual = f"{module}.{node.name}.{sub.name}"
                        yield qual, sub.name, sub.lineno, sub.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield f"{module}.{target.id}", target.id, node.lineno, node.end_lineno


def _references(tree, is_init):
    """``(name, line)`` of each Name, Attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def no_caller_definitions():
    definitions = []
    references = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            rel = path.relative_to(ROOT)
            if top == "src":
                module = ".".join(rel.with_suffix("").parts[2:])
                definitions += [
                    (qual, name, first, last, rel)
                    for qual, name, first, last in _definitions(tree, module)
                ]
            for name, line in _references(tree, path.name == "__init__.py"):
                references.setdefault(name, []).append((rel, line))
    return {
        qual
        for qual, name, first, last, rel in definitions
        if all(
            where == rel and first <= line <= last
            for where, line in references.get(name, ())
        )
    }


def test_every_definition_has_a_caller_or_is_allowed():
    found = no_caller_definitions()
    assert sorted(found - ALLOWED) == [], "no caller: delete, or allow with a reason"
    assert sorted(ALLOWED - found) == [], "has a caller now: drop from ALLOWED"
