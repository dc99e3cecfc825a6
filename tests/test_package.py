import types

import wells_majorize


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(wells_majorize.__all__)) == len(wells_majorize.__all__)
    for name in wells_majorize.__all__:
        value = getattr(wells_majorize, name)
        assert not isinstance(value, types.ModuleType), name
