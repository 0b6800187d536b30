"""The package namespace exports exactly what __all__ names."""

import types

import fbmlab


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
