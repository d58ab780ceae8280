"""Storage substrate: simulated and real block devices, buffer pool,
record codecs, and extent allocation.

This package is the stand-in for the paper's physical disks (see
DESIGN.md section 2 for the substitution rationale).
"""

from .buffer_pool import BufferPoolStats, LRUBufferPool
from .device import (
    BlockDevice,
    DeviceSpec,
    FileBlockDevice,
    MemoryBlockDevice,
    SimulatedBlockDevice,
)
from .disk_model import DiskModel, DiskParameters, DiskStats
from .extents import Extent, ExtentAllocator
from .recordbatch import RecordBatch
from .records import (
    MIN_RECORD_SIZE,
    Record,
    RecordSchema,
)

__all__ = [
    "BlockDevice",
    "BufferPoolStats",
    "DeviceSpec",
    "DiskModel",
    "DiskParameters",
    "DiskStats",
    "Extent",
    "ExtentAllocator",
    "FileBlockDevice",
    "LRUBufferPool",
    "MIN_RECORD_SIZE",
    "MemoryBlockDevice",
    "Record",
    "RecordBatch",
    "RecordSchema",
    "SimulatedBlockDevice",
]

from .striping import StripedBlockDevice  # noqa: E402
from .varrecords import VariableRecordCodec  # noqa: E402

__all__ = sorted(__all__ + ["StripedBlockDevice", "VariableRecordCodec"])
