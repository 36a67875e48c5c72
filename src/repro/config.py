"""SoC configuration dataclasses (paper Table II).

The default values reproduce Table II of the paper:

=====================  =========
Parameter              Value
=====================  =========
PE array (per core)    32x32
Scratchpad (per core)  256 KiB
NPU cores              16
Shared cache capacity  16 MiB
NPU ways / total ways  12 / 16
Cache slices           8
DRAM total bandwidth   102.4 GB/s
DRAM channels          4
Frequency              1 GHz
=====================  =========

All sizes are bytes, bandwidth is bytes/second, frequency is Hz and time is
seconds unless a name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

KiB = 1024
MiB = 1024 * KiB

#: Cache line size used throughout the SoC (bytes).
CACHE_LINE_BYTES = 64

#: CaMDN cache page size (Section III-B3: 32 KiB pages for a 16 MiB cache).
CACHE_PAGE_BYTES = 32 * KiB


@dataclass(frozen=True)
class NPUConfig:
    """Configuration of a single NPU core.

    Attributes:
        pe_rows / pe_cols: dimensions of the weight-stationary systolic
            array (Table II: 32x32).
        scratchpad_bytes: private scratchpad capacity (Table II: 256 KiB).
        frequency_hz: core clock (Table II: 1 GHz).
        dwconv_efficiency: fraction of peak MACs sustained on depth-wise
            convolutions.  Depth-wise layers cannot fill the reduction
            dimension of a systolic array, so their effective throughput is a
            small fraction of peak; 0.25 models mapping R*S*unrolled channels
            onto the array.
    """

    pe_rows: int = 32
    pe_cols: int = 32
    scratchpad_bytes: int = 256 * KiB
    frequency_hz: float = 1e9
    dwconv_efficiency: float = 0.25

    def __post_init__(self) -> None:
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            raise ConfigError("PE array dimensions must be positive")
        if self.scratchpad_bytes <= 0:
            raise ConfigError("scratchpad capacity must be positive")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if not 0.0 < self.dwconv_efficiency <= 1.0:
            raise ConfigError("dwconv_efficiency must be in (0, 1]")

    @property
    def macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle of the PE array."""
        return self.pe_rows * self.pe_cols


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of the sliced shared cache.

    Attributes:
        total_bytes: total shared cache capacity (Table II: 16 MiB).
        num_slices: number of address-interleaved slices (Table II: 8).
        num_ways: set associativity of each slice (Table II: 16).
        npu_ways: ways assigned to the NPU subspace by the way mask
            (Table II: 12 of 16).
        line_bytes: cache line size.
        page_bytes: CaMDN page size for the NPU subspace.
    """

    total_bytes: int = 16 * MiB
    num_slices: int = 8
    num_ways: int = 16
    npu_ways: int = 12
    line_bytes: int = CACHE_LINE_BYTES
    page_bytes: int = CACHE_PAGE_BYTES

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ConfigError("cache capacity must be positive")
        if self.num_slices <= 0:
            raise ConfigError("cache must have at least one slice")
        if self.total_bytes % self.num_slices != 0:
            raise ConfigError("cache capacity must divide evenly into slices")
        if not 0 <= self.npu_ways <= self.num_ways:
            raise ConfigError(
                "NPU ways must be between 0 and the total way count"
            )
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a positive power of two")
        if self.page_bytes % self.line_bytes != 0:
            raise ConfigError("page size must be a multiple of the line size")
        if self.npu_subspace_bytes % self.page_bytes != 0:
            raise ConfigError(
                "NPU subspace must divide evenly into cache pages"
            )

    @property
    def slice_bytes(self) -> int:
        """Capacity of one cache slice."""
        return self.total_bytes // self.num_slices

    @property
    def sets_per_slice(self) -> int:
        """Number of sets in one slice."""
        return self.slice_bytes // (self.num_ways * self.line_bytes)

    @property
    def npu_subspace_bytes(self) -> int:
        """Capacity of the way-partitioned NPU subspace across all slices."""
        return self.total_bytes * self.npu_ways // self.num_ways

    @property
    def num_pages(self) -> int:
        """Total CaMDN pages available in the NPU subspace."""
        return self.npu_subspace_bytes // self.page_bytes


@dataclass(frozen=True)
class DRAMConfig:
    """Configuration of the DRAM subsystem.

    Attributes:
        total_bandwidth_bytes_per_s: aggregate bandwidth
            (Table II: 102.4 GB/s).
        num_channels: independent channels (Table II: 4).
        access_latency_s: idle-system access latency added to the first
            access of a layer; second-order for the fluid model.
    """

    total_bandwidth_bytes_per_s: float = 102.4e9
    num_channels: int = 4
    access_latency_s: float = 60e-9

    def __post_init__(self) -> None:
        if self.total_bandwidth_bytes_per_s <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        if self.num_channels <= 0:
            raise ConfigError("DRAM must have at least one channel")
        if self.access_latency_s < 0:
            raise ConfigError("DRAM latency cannot be negative")


@dataclass(frozen=True)
class SoCConfig:
    """Full NPU-integrated SoC configuration (paper Table II).

    Attributes:
        npu: per-core NPU configuration.
        num_npu_cores: number of NPU cores on the SoC (Table II: 16).
        cache: shared cache configuration.
        dram: DRAM configuration.
        dtype_bytes: bytes per tensor element (int8 inference by default).
    """

    npu: NPUConfig = field(default_factory=NPUConfig)
    num_npu_cores: int = 16
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    dtype_bytes: int = 1

    def __post_init__(self) -> None:
        if self.num_npu_cores <= 0:
            raise ConfigError("SoC must have at least one NPU core")
        if self.dtype_bytes <= 0:
            raise ConfigError("dtype_bytes must be positive")

    def with_cache_bytes(self, total_bytes: int) -> "SoCConfig":
        """Return a copy with a different shared cache capacity.

        The NPU/total way split and slice count are preserved, matching the
        paper's scaling experiment, which varies only total capacity.
        """
        cache = CacheConfig(
            total_bytes=total_bytes,
            num_slices=self.cache.num_slices,
            num_ways=self.cache.num_ways,
            npu_ways=self.cache.npu_ways,
            line_bytes=self.cache.line_bytes,
            page_bytes=self.cache.page_bytes,
        )
        return SoCConfig(
            npu=self.npu,
            num_npu_cores=self.num_npu_cores,
            cache=cache,
            dram=self.dram,
            dtype_bytes=self.dtype_bytes,
        )


def default_soc() -> SoCConfig:
    """Return the paper's Table II SoC configuration."""
    return SoCConfig()
