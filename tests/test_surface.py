"""Every public name of pavlab has a caller, or a named reason to stay.

A caller is a use of the name in ``src/pavlab`` outside its own top-level
definition and ``__init__.py``, or a use in the benchmark under
``perfbench/`` (its tests left out).  Tests do not count.  The names
checked are pavlab's exports and every public module-level function and
class of its modules.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import pavlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pavlab"

# exported for the paper's setting, with no caller: name -> what it carries
PAPER_IDENTITIES = {
    "normalized_trace": "the trace tau of the II_1 factor, tau(1) = 1 and tau(xy) = tau(yx)",
    "conditional_expectation": "E_A, the trace-preserving A-bimodular projection onto the MASA",
    "perpendicular_frame": "the Fourier MASA, perpendicular to the diagonal one",
    "arc_partition": "the partition by the spectral arcs of a MASA unitary",
    "sign_split": "the eigenprojections of a period-2 unitary and their L2 paving bound",
}


def exported_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def uses_name(path: Path, name: str) -> bool:
    """Whether the module at path uses name outside its top-level definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == name:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == name:
                return True
    return False


CALLER_FILES = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
                + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                   if not p.name.startswith("test_")])


@pytest.mark.parametrize("name", exported_names())
def test_each_export_has_a_caller_or_a_paper_identity(name):
    assert hasattr(pavlab, name)
    if name in PAPER_IDENTITIES:
        return
    callers = [p.name for p in CALLER_FILES if uses_name(p, name)]
    assert callers, f"{name} has no caller in src or perfbench and no paper identity"


def test_paper_identities_are_exported():
    assert set(PAPER_IDENTITIES) <= set(exported_names())


# public module-level names with no caller that stay: "module.name" -> why
UNCALLED_REASONS = {
    "matrix_io.save_json": "writes the JSON matrix format that load_matrix reads",
}


def uncalled_reason(module: str, name: str) -> str | None:
    if name in PAPER_IDENTITIES:
        return PAPER_IDENTITIES[name]
    if module == "cli" and name.startswith("cmd_"):
        return "a subcommand handler: main looks it up by its SUBCOMMANDS name"
    return UNCALLED_REASONS.get(f"{module}.{name}")


def module_public_names() -> list[str]:
    """'module.name' for each public function and class a pavlab module defines."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = importlib.import_module(f"pavlab.{path.stem}")
        out += [f"{path.stem}.{name}" for name, obj in vars(mod).items()
                if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                and (inspect.isclass(obj) or inspect.isfunction(obj))]
    return out


@pytest.mark.parametrize("qualname", module_public_names())
def test_each_public_module_name_has_a_caller_or_a_reason(qualname):
    module, name = qualname.split(".")
    if uncalled_reason(module, name):
        return
    callers = [p.name for p in CALLER_FILES if uses_name(p, name)]
    assert callers, f"{qualname} has no caller in src or perfbench and no named reason"


# the public entries that take a frame; each converts its inputs to frame
# coordinates once, and every step after it reads frame coordinates, where
# E_A keeps the diagonal
FRAME_ENTRIES = ["Partition", "arc_partition", "build_independent_partition", "dixmier_average",
                 "k_independence_residual", "pave_search", "paving_number_exact",
                 "reduce_and_pave", "sign_split"]


def test_only_public_entries_take_a_frame():
    from pavlab import independence, paving, reduction

    public, private = [], []
    for mod in (paving, independence, reduction):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                params = inspect.signature(obj.__init__).parameters
            elif inspect.isfunction(obj):
                params = inspect.signature(obj).parameters
            else:
                continue
            if "frame" in params:
                (private if name.startswith("_") else public).append(name)
    assert private == []
    assert sorted(public) == FRAME_ENTRIES
