"""Exception hierarchy for the CaMDN reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An SoC / NPU / cache / DRAM configuration is internally inconsistent."""


class MappingError(ReproError):
    """The layer mapper could not produce a legal mapping candidate."""


class PageAllocationError(ReproError):
    """The cache page allocator could not satisfy a request."""


class CPTError(ReproError):
    """A cache page table operation is invalid (bad vcpn, double map, ...)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class WorkloadError(ReproError):
    """A multi-tenant workload description is invalid."""


class ModelGraphError(ReproError):
    """A DNN model graph is malformed (dangling tensor, bad shape, ...)."""


class SnapshotError(ReproError):
    """An engine snapshot is unreadable, corrupt, or version-mismatched."""
