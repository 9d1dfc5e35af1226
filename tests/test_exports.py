"""Every exported name resolves, and every exported name has a caller: no
stale ``__all__`` entry survives a deletion, and no public helper is kept
alive by its own tests alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twogap

MODULES = [twogap] + [
    importlib.import_module(f"twogap.{info.name}")
    for info in pkgutil.iter_modules(twogap.__path__)
]

# Independent reference routes that no library path calls: tests compare
# the library against them, so they stay public.
REFERENCE_ORACLES = (
    # test_eigen.test_solver_route_matches_closed_form: the 2x2 boundary
    # solve against the closed-form coefficients
    ("twogap.eigen", "eigen_coeffs_solve"),
    # test_rkhs.test_green_identity: the Green identity's line integral
    # against the boundary form
    ("twogap.rkhs", "momentum_defect"),
    # test_evolution.test_blocks_sum_to_evolution and
    # test_semigroup.test_compressed_semigroup_is_the_density_block: the nine
    # blocks of U(t) against evolve and compress_evolve
    ("twogap.evolution", "block_matrix_entry"),
)


def _loads(tree: ast.AST) -> set[str]:
    """Names read (Name or Attribute loads) in ``tree``, each outside the
    function or class that defines a name of the same spelling."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _parsed_loads(paths) -> set[str]:
    out = set()
    for path in paths:
        out |= _loads(ast.parse(Path(path).read_text(), filename=str(path)))
    return out


LIBRARY_LOADS = _parsed_loads(Path(twogap.__file__).parent.glob("*.py"))
ACCEPTANCE_LOADS = _parsed_loads([Path(__file__).with_name("test_acceptance.py")])


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES[1:], ids=lambda m: m.__name__)
def test_every_export_has_a_caller(module):
    """A submodule's public name is re-exported by the package, read by
    library code, used by an acceptance criterion, or a named reference."""
    idle = [
        name
        for name in module.__all__
        if name not in twogap.__all__
        and name not in LIBRARY_LOADS
        and name not in ACCEPTANCE_LOADS
        and (module.__name__, name) not in REFERENCE_ORACLES
    ]
    assert not idle


def test_reference_oracles_are_exported():
    for module, name in REFERENCE_ORACLES:
        assert name in importlib.import_module(module).__all__


SWEEP_INTERNALS = {"_edge_clusters", "_merge_adjacent", "SNAP_REL", "_sweep", "_gather", "_wider"}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(twogap.__file__).parent.glob("*.py")) if p.name != "packets.py"],
    ids=lambda p: p.name,
)
def test_one_module_owns_the_sweep(path):
    """The edge rule, the snap, the merge and the door into the sweep are
    decided in ``packets`` alone: no other library module reads or imports
    their internals (the sweep itself, its gatherer, the edge rule's width
    test), so a second sweep or edge rule cannot grow beside ``packets``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not (_loads(tree) | imported) & SWEEP_INTERNALS


GENERATOR_INTERNALS = {"_coefficient_table", "_kind_terms", "_product", "_underflow_index"}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(twogap.__file__).parent.glob("*.py")) if p.name != "multipliers.py"],
    ids=lambda p: p.name,
)
def test_one_module_writes_the_coefficients(path):
    """The coefficient table, the kind rows, the product that rounds the
    weights and the underflow cap are read in ``multipliers`` alone, whose
    ``_lattice_series`` is the one writer of series coefficients: no other
    library module reads or imports them, so a second writer cannot grow."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not (_loads(tree) | imported) & GENERATOR_INTERNALS
