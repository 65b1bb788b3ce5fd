import time

import pytest

from vcrnet.diagnostics import end_to_end_checks, layer_checks, probe_model


@pytest.fixture(scope="session")
def a1_battery():
    """The A1 battery, run once per session: (probe model, results, seconds).

    The results are `run_all()`'s, with the end-to-end sweep run on a probe
    model kept here, so A1 and the default-probe oracle comparison share
    one sweep and the model can be inspected after it.
    """
    model = probe_model()
    t0 = time.perf_counter()
    results = layer_checks() + end_to_end_checks(model=model)
    return model, results, time.perf_counter() - t0
