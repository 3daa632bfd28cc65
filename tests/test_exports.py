import permscheme


def test_every_export_resolves():
    # A name left in __all__ after its definition is gone would otherwise
    # fail only at ``from permscheme import *``.
    assert [name for name in permscheme.__all__ if not hasattr(permscheme, name)] == []
