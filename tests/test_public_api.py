import eqgrass


def test_all_names_resolve_once():
    names = eqgrass.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(eqgrass, name)]
    assert missing == []


def test_star_import_in_fresh_namespace():
    namespace = {}
    exec("from eqgrass import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(eqgrass.__all__)
