"""The package namespace exports exactly what __all__ names, every public
function has a caller in the package, and the package's public names and
settable values stay counted."""

import ast
import inspect
import types
from pathlib import Path

import fbmlab

# Names in fbmlab.__all__.  A change that adds a public name moves this pin.
PUBLIC_NAMES = 52
# Parameters with a default, and dataclass fields with a default, over
# src/fbmlab.  A change that adds a setting moves this pin.
SETTABLE_VALUES = 27


def test_all_matches_the_public_namespace():
    """Every name in __all__ resolves, and every public name bound in the
    package (submodules and dunders aside) is in __all__, so a deleted or
    added function cannot leave a stale or missing export behind.  Their
    number does not grow."""
    assert len(fbmlab.__all__) == len(set(fbmlab.__all__))
    for name in fbmlab.__all__:
        assert getattr(fbmlab, name) is not None
    public = {name for name, value in vars(fbmlab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(fbmlab.__all__) == public
    assert len(fbmlab.__all__) <= PUBLIC_NAMES, len(fbmlab.__all__)


def _uses(tree: ast.AST, name: str) -> bool:
    """Whether the tree reads `name`, as a name or an attribute, outside a
    def of that name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_function_has_a_caller_in_the_package():
    """A public function that no src/fbmlab module uses (the CLI counts)
    is a second entry point only the tests keep alive."""
    trees = [ast.parse(path.read_text())
             for path in Path(fbmlab.__file__).parent.glob("*.py")]
    functions = [name for name in fbmlab.__all__
                 if inspect.isfunction(getattr(fbmlab, name))]
    assert [name for name in functions
            if not any(_uses(tree, name) for tree in trees)] == []


def _has_default(value: ast.expr | None) -> bool:
    """A dataclass field's value sets a default unless it is absent or a
    field(...) call without default or default_factory, as
    field(repr=False) is."""
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def test_settable_values_do_not_grow():
    """Every parameter with a default in a def, and every dataclass field
    with a default, is a value some caller can set.  Lambdas' defaults
    (loop-variable captures) are not counted."""
    count = 0
    for path in Path(fbmlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and _has_default(s.value)
                             for s in node.body)
    assert count <= SETTABLE_VALUES, count
