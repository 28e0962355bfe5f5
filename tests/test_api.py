import types

import bellpair


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {name for name, value in vars(bellpair).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bellpair.__all__) == sorted(bound)
    assert len(set(bellpair.__all__)) == len(bellpair.__all__)
    for name in bellpair.__all__:
        assert getattr(bellpair, name) is not None
