from hypothesis import settings

# A longer search than each test's own example count, for a separate pass
# over every property module:
# pytest tests/test_reid_properties.py tests/test_language.py
#        tests/test_perception.py tests/test_world.py --hypothesis-profile=deep
settings.register_profile("deep", max_examples=500)


def examples(n):
    """Settings for ``n`` examples without a deadline; under the ``deep``
    profile every test runs that profile's count instead."""
    deep = settings.get_profile("deep")
    return settings(max_examples=deep.max_examples if settings.default is deep else n,
                    deadline=None)
