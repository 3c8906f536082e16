import kklio


def test_all_names_resolve_once():
    assert len(kklio.__all__) == len(set(kklio.__all__))
    namespace = {}
    exec("from kklio import *", namespace)
    missing = [name for name in kklio.__all__ if name not in namespace]
    assert not missing, missing
