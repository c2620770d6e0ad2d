import chronosem


def test_every_exported_name_resolves():
    # a star import fails on any name in __all__ the package does not define
    namespace = {}
    exec("from chronosem import *", namespace)
    assert set(chronosem.__all__) <= namespace.keys()
