"""A tripwire against public library names that nothing reaches.

Every public top-level function or class of src/cornerkit, and every
public method of such a class, must be mentioned somewhere other than in
its own definition: as a name, an attribute or an identifier string in
src/cornerkit (the strings cover cli.LIBRARY, which binds the CLI's
library names lazily), or as an identifier string in the patch list of
bench/spans.py, which wraps library functions by name.  A name that only
the tests call goes in KEPT with the reason it stays; otherwise it is
deleted with its tests, or moved into the tests if it is a test helper.

The scan matches by name, which is coarse: a JSON key or a method of
the same name elsewhere counts as a use, and an import alone does not.
It is a tripwire, not a proof that a name is reachable.
"""

import ast
import importlib
import inspect
import typing
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "cornerkit"
SPANS = ROOT / "bench" / "spans.py"

KEPT = {
    "snf": "acceptance criterion 3 checks U·A·V = D with the transforms",
    "cokernel": "acceptance criterion 8, through pi1_orbit_union",
    "diagonal": "the tests of snf read SNFResult.diagonal",
    # these two are matched anyway, but only by coincidence: by cli's
    # JSON key "reduced_homology" and by SparseMatrix.is_zero
    "reduced_homology": "acceptance criterion 3 reads H̃_1(RP²) through it",
    "is_zero": "acceptance criterion 7 checks δδ = 0 with Cochain.is_zero",
    # and this one by the "simplex" report key and GhsFailure.simplex
    "simplex": "the tests build their checked faces with it",
}


def _mentions(node) -> Counter:
    """Names, attributes and identifier strings anywhere under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            found[sub.value] += 1
    return found


def _definitions(tree):
    """(qualified name, bare name, node) of each public top-level function
    or class and each public method of such a class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, defs)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item


def _patch_list() -> set[str]:
    """The identifier strings of Tracer.__enter__, which names every
    attribute the benchmark wraps."""
    tree = ast.parse(SPANS.read_text())
    enter = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__enter__")
    return {sub.value for sub in ast.walk(enter)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and sub.value.isidentifier()}


def _unreached() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    patched = _patch_list()
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if name in KEPT or name in patched:
                continue
            if everywhere[name] - _mentions(node)[name] <= 0:
                out.append(f"{module}.{qualified}")
    return out


def test_every_public_name_is_reached_or_kept_for_a_reason():
    unreached = _unreached()
    assert not unreached, unreached


def test_every_kept_name_is_still_defined():
    defined = {name for path in SRC.glob("*.py")
               for _, name, _ in _definitions(ast.parse(path.read_text()))}
    assert set(KEPT) <= defined


# Every public function and method of src/cornerkit must have annotations
# that typing.get_type_hints resolves in its module, so a name that moved
# cannot leave an annotation naming a type its module no longer binds.
# The modules keep imports out of every job that does not run them, so
# the names here stay unresolvable on purpose.
UNRESOLVED = {
    "cli.build_parser": "argparse is imported only on the fallback parse",
    "jsonio.group_to_obj": "jsonio must not import homology, which binds "
                           "FGAbelianGroup",
}


def _public_callables():
    """(qualified name, function) of each public function and class
    defined in src/cornerkit, and of each public method or __init__ of
    such a class."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cornerkit.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    function = getattr(member, "__func__", member)
                    if (inspect.isfunction(function)
                            and (attr == "__init__"
                                 or not attr.startswith("_"))):
                        yield f"{path.stem}.{name}.{attr}", function


def test_every_public_annotation_resolves():
    unresolved = set()
    for qualified, function in _public_callables():
        try:
            typing.get_type_hints(function)
        except NameError:
            unresolved.add(qualified)
    assert unresolved == set(UNRESOLVED)
