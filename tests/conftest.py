"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.config import KiB, MiB, CacheConfig, NPUConfig, SoCConfig
from repro.models.zoo import build_model, load_benchmark_suite

#: On-disk caches the suite keeps out of the user's cache directory.
#: The native-module cache stays shared: it is keyed by its source.
_ISOLATED_CACHES = ("REPRO_MAPPING_CACHE_DIR", "REPRO_SWEEP_CACHE_DIR")


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_caches(tmp_path_factory):
    """Point the mapping and sweep-result caches at session temp
    directories, so the suite neither reads nor fills the user's.

    Set in ``os.environ`` so subprocess tests inherit them.  A value the
    caller already set wins (CI sets ``REPRO_SWEEP_CACHE_DIR=""`` to
    turn the sweep cache off).
    """
    unset = [name for name in _ISOLATED_CACHES if name not in os.environ]
    for name in unset:
        os.environ[name] = str(tmp_path_factory.mktemp(name.lower()))
    yield
    for name in unset:
        os.environ.pop(name, None)


@pytest.fixture(scope="session")
def soc() -> SoCConfig:
    """The paper's Table II SoC."""
    return SoCConfig()


@pytest.fixture(scope="session")
def small_soc() -> SoCConfig:
    """A scaled-down SoC for fast functional tests: 1 MiB cache, 2 slices,
    4 cores.  Keeps page/line geometry realistic while making exhaustive
    sweeps cheap."""
    return SoCConfig(
        npu=NPUConfig(scratchpad_bytes=64 * KiB),
        num_npu_cores=4,
        cache=CacheConfig(
            total_bytes=1 * MiB,
            num_slices=2,
            num_ways=8,
            npu_ways=6,
            page_bytes=32 * KiB,
        ),
    )


@pytest.fixture(scope="session")
def resnet():
    return build_model("RS.")


@pytest.fixture(scope="session")
def mobilenet():
    return build_model("MB.")


@pytest.fixture(scope="session")
def bert():
    return build_model("BE.")


@pytest.fixture(scope="session")
def suite():
    return load_benchmark_suite()
