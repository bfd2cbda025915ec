"""Every public name and option of pavlab has a caller, or a named reason to stay.

A caller is a use of the name in ``src/pavlab`` outside its own top-level
definition and ``__init__.py``, or a use in the benchmark under
``perfbench/`` (its tests left out).  Tests do not count.  The names
checked are pavlab's exports and every public module-level function and
class of its modules; the options checked are the parameters with a
default of each public module-level function, which some call must pass.
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


# options that no call passes and that stay: "module.function.parameter" -> why
UNPASSED_OPTION_REASONS = {
    "independence.check_cor37.Y": "Cor 3.7's trace targets, which "
                                  "build_independent_partition also takes",
}


def passed_options(path: Path) -> dict:
    """function name -> (the most positional arguments of a call, the keywords
    passed), over the calls in the module at path; a ``*args`` counts as
    every position and a ``**kwargs`` as every keyword."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        n_pos, keywords = out.get(name, (0, set()))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        n_pos = max(n_pos, float("inf") if starred else len(node.args))
        out[name] = (n_pos, keywords | {kw.arg or "**" for kw in node.keywords})
    return out


def module_options() -> list[str]:
    """'module.function.parameter' for each parameter with a default of a
    public function that a pavlab module defines."""
    out = []
    for qualname in module_public_names():
        module, name = qualname.split(".")
        obj = getattr(importlib.import_module(f"pavlab.{module}"), name)
        if inspect.isfunction(obj):
            out += [f"{qualname}.{p.name}" for p in inspect.signature(obj).parameters.values()
                    if p.default is not inspect.Parameter.empty]
    return out


CALLS = [passed_options(p) for p in CALLER_FILES]


@pytest.mark.parametrize("option", module_options())
def test_each_option_is_passed_by_a_caller_or_has_a_reason(option):
    if option in UNPASSED_OPTION_REASONS:
        return
    module, name, param = option.split(".")
    params = list(inspect.signature(getattr(importlib.import_module(f"pavlab.{module}"),
                                            name)).parameters.values())
    p = next(p for p in params if p.name == param)
    position = (params.index(p) if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                else float("inf"))
    calls = [c[name] for c in CALLS if name in c]
    assert any(n_pos > position or param in keywords or "**" in keywords
               for n_pos, keywords in calls), f"no call in src or perfbench passes {option}"


def test_unpassed_option_reasons_name_options():
    assert set(UNPASSED_OPTION_REASONS) <= set(module_options())


# the public entries that take a frame: they build or read MASA elements, and
# the benchmark passes a frame to Partition and build_independent_partition.
# Each converts its inputs to frame coordinates once, and every step after it
# reads frame coordinates, where E_A keeps the diagonal
FRAME_ENTRIES = ["Partition", "arc_partition", "build_independent_partition", "dixmier_average",
                 "sign_split"]


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


def test_no_module_calls_numpy_svd():
    # every values-only SVD goes through finite_vn._singular_values, the one kernel
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "svd" and isinstance(node.func.value, ast.Attribute)
             and node.func.value.attr == "linalg"]
    assert calls == []
