import os

import pytest
from hypothesis import settings

from tra.coordinator import Coordinator
from tra.resources import ManagedStore, TxnQueue
from tra.sim import SimClock, Tracer

# Tier-1 runs the same examples every time; HYPOTHESIS_PROFILE=deep searches
# further with fresh random examples on each run.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def tracer():
    return Tracer(SimClock())


@pytest.fixture
def rig(tmp_path, tracer):
    """Coordinator wired to one store and one queue, logs under tmp_path."""
    coord = Coordinator(str(tmp_path / "coordinator.log"), tracer=tracer)
    store = ManagedStore("store", str(tmp_path / "store.log"), tracer=tracer)
    queue = TxnQueue("queue", str(tmp_path / "queue.log"), tracer=tracer)
    coord.register(store)
    coord.register(queue)
    return coord, store, queue
