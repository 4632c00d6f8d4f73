from hypothesis import settings

# A longer search than each test's own example count, for a separate pass:
# pytest tests/test_reid_properties.py --hypothesis-profile=deep
settings.register_profile("deep", max_examples=500)
