import errno
import os

import pytest
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


@pytest.fixture(params=["one_cpu", "fork_fails"])
def world_stage_in_process(request, monkeypatch):
    """Make ``run_experiment`` run its world stage in this process: as with
    one usable CPU, or as where ``os.fork`` fails."""
    if request.param == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
