import killing3


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from killing3 import *", namespace)  # AttributeError on a stale name
    assert set(killing3.__all__) <= namespace.keys()
    assert len(set(killing3.__all__)) == len(killing3.__all__)
