import circe


def test_every_name_in_all_resolves_once():
    assert [name for name in circe.__all__ if not hasattr(circe, name)] == []
    assert len(set(circe.__all__)) == len(circe.__all__)


def test_star_import_fills_a_fresh_namespace():
    # a stale __all__ entry makes `from circe import *` raise AttributeError
    namespace = {}
    exec("from circe import *", namespace)
    assert set(circe.__all__) <= namespace.keys()
