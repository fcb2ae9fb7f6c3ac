"""Suite-wide fixtures.

``REPRO_TEST_CPU_COUNT=N`` makes the worker-count auto-selection
(``C2bpOptions(jobs=0)``, resolved by :func:`repro.core.pool.auto_jobs`)
see ``N`` cores, so a single-core runner still drives every default-option
test through the multi-core worker pool.  Only the test suite reads the
variable; the package itself never does.
"""

import os

import pytest

from repro.core import pool as pool_module


@pytest.fixture(autouse=True)
def _forced_cpu_count(monkeypatch):
    forced = os.environ.get("REPRO_TEST_CPU_COUNT")
    if forced:
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: int(forced))
