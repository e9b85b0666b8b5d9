import contextlib
import os

import pytest
from hypothesis import settings

from tra.coordinator import Coordinator
from tra.resources import ManagedStore, TxnQueue
from tra.sim import Tracer

# Tier-1 runs the same examples every time; HYPOTHESIS_PROFILE=deep searches
# further with fresh random examples on each run.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def rig(tmp_path, tracer):
    """Coordinator wired to one store and one queue, logs under tmp_path."""
    coord = Coordinator(str(tmp_path / "coord.log"), tracer=tracer)
    store = ManagedStore("store", str(tmp_path / "store.log"), tracer=tracer)
    queue = TxnQueue("queue", str(tmp_path / "queue.log"), tracer=tracer)
    coord.register(store)
    coord.register(queue)
    yield coord, store, queue
    for owner in (coord, *coord.registry.values()):  # with any manager a test registered
        owner.close()


@pytest.fixture
def closing():
    """Hands back each log owner it is given, and closes them all when the test ends."""
    with contextlib.ExitStack() as stack:
        yield lambda owner: stack.enter_context(contextlib.closing(owner))
