"""The package namespace exports exactly what __all__ names, and the
package's settable values stay counted."""

import ast
import types
from pathlib import Path

import fbmlab

# Parameters with a default, and dataclass fields with a default, over
# src/fbmlab.  A change that adds a setting moves this pin.
SETTABLE_VALUES = 30


def test_all_matches_the_public_namespace():
    """Every name in __all__ resolves, and every public name bound in the
    package (submodules and dunders aside) is in __all__, so a deleted or
    added function cannot leave a stale or missing export behind."""
    assert len(fbmlab.__all__) == len(set(fbmlab.__all__))
    for name in fbmlab.__all__:
        assert getattr(fbmlab, name) is not None
    public = {name for name, value in vars(fbmlab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(fbmlab.__all__) == public


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
