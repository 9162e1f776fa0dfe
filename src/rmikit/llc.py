"""Reconfigurable last-level-cache set partitioning with zero-device flush.

Physical memory is divided into 64 regions of 32MB. A range table maps
each region to a contiguous range of cache sets:

    set = base + (original_index mod size)

Line tags keep the entire original set index, so arbitrarily small ranges
stay unambiguous. Flushing a region is done the way the hardware would:
by reading an eviction set in a zero-device address space that aliases
the region's cache indexing but always returns zeros.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .machine import json_int

NUM_REGIONS = 64
REGION_SHIFT = 25            # 32MB region granularity
TABLE_BITS = 1216            # 64 entries * (10-bit base + 9-bit size)
BASE_BITS = 10
SIZE_BITS = 9
ZERO_DEVICE_BASE = 1 << 40   # alias bit outside the modeled DRAM range


class LlcError(Exception):
    pass


class RegionOutOfRange(LlcError):
    pass


class OverlappingRanges(LlcError):
    pass


class ExceedsCapacity(LlcError):
    pass


class EnclavesRunning(LlcError):
    pass


class SmRegionModified(LlcError):
    pass


@dataclass(frozen=True)
class Geometry:
    total_bytes: int = 1 << 20
    ways: int = 16
    line_bytes: int = 64

    @property
    def total_sets(self):
        return self.total_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class PartitionTable:
    """Per-region (base, size) set-index ranges."""
    entries: dict          # region id -> (base_set, size_sets)
    geometry: Geometry = Geometry()

    def __post_init__(self):
        total = self.geometry.total_sets
        ranges = []
        for region, (base, size) in sorted(self.entries.items()):
            if not 0 <= region < NUM_REGIONS:
                raise RegionOutOfRange(f"region id {region}")
            if base >= (1 << BASE_BITS) or size >= (1 << SIZE_BITS) or size < 1:
                raise ExceedsCapacity(
                    f"region {region}: (base={base}, size={size}) does not "
                    f"fit the {TABLE_BITS}-bit table encoding")
            if base < 0 or base + size > total:
                raise ExceedsCapacity(
                    f"region {region}: range [{base}, {base + size}) exceeds "
                    f"{total} sets")
            ranges.append((base, base + size, region))
        ranges.sort()
        for (_, hi, r1), (lo, _, r2) in zip(ranges, ranges[1:]):
            if lo < hi:
                raise OverlappingRanges(f"regions {r1} and {r2} share sets")
        if sum(size for _, size in self.entries.values()) > total:
            raise ExceedsCapacity("total partition size exceeds the cache")

    def range_of(self, region):
        if region not in self.entries:
            raise RegionOutOfRange(f"region {region} has no configured range")
        return self.entries[region]

    @classmethod
    def from_json(cls, data, geometry=Geometry()):
        if isinstance(data, str):
            data = json.loads(data)
        entries = {int(region): (json_int(spec["base"]), json_int(spec["size"]))
                   for region, spec in data.items()}
        return cls(entries=entries, geometry=geometry)

    def to_json(self):
        return {str(region): {"base": base, "size": size}
                for region, (base, size) in sorted(self.entries.items())}


@dataclass(frozen=True)
class CacheLine:
    tag: int        # full line address: upper bits plus the entire original index
    region: int
    zero: bool = False   # filled from the zero device


def region_of(address):
    return (address >> REGION_SHIFT) % NUM_REGIONS


def remap_set_index(address, table):
    """(region id, cache set) for a physical or zero-device address."""
    geometry = table.geometry
    region = region_of(address)
    base, size = table.range_of(region)
    original = (address // geometry.line_bytes) % geometry.total_sets
    return region, base + (original % size)


def zero_device_address(region, set_offset, way_index, geometry=Geometry()):
    """A zero-device address aliasing the given region whose original set
    index equals set_offset; way_index varies the tag only."""
    return (ZERO_DEVICE_BASE
            | (region << REGION_SHIFT)
            | (way_index << 16)
            | (set_offset * geometry.line_bytes))


@dataclass
class PartitionedCache:
    table: PartitionTable
    sm_regions: frozenset = frozenset({0})
    sets: list = field(default_factory=list)
    accesses: int = 0

    def __post_init__(self):
        if not self.sets:
            self.sets = [[] for _ in range(self.table.geometry.total_sets)]

    def access(self, address):
        """LRU lookup/fill; returns True on hit. Zero-device reads always
        miss architecturally but still allocate (that is their purpose)."""
        self.accesses += 1
        region, set_index = remap_set_index(address, self.table)
        zero = bool(address & ZERO_DEVICE_BASE)
        tag = address // self.table.geometry.line_bytes
        lines = self.sets[set_index]
        for i, line in enumerate(lines):
            if line.tag == tag and line.region == region:
                lines.append(lines.pop(i))      # most recent last
                return not line.zero
        lines.append(CacheLine(tag=tag, region=region, zero=zero))
        if len(lines) > self.table.geometry.ways:
            lines.pop(0)
        return False

    def lines_of_region(self, region, include_zero=False):
        return [line for lines in self.sets for line in lines
                if line.region == region and (include_zero or not line.zero)]

    def flush_region(self, region):
        """Evict every line of `region` by walking a zero-device eviction
        set covering each way of each set in the region's range; returns
        the number of accesses performed (size_sets x ways)."""
        base, size = self.table.range_of(region)
        geometry = self.table.geometry
        count = 0
        for offset in range(size):
            for way in range(geometry.ways):
                self.access(zero_device_address(region, offset, way, geometry))
                count += 1
        return count

    def configure(self, new_table, running_enclaves):
        """Validated reconfiguration: only allowed with no enclave running
        and without touching the ranges reserved for the security monitor;
        sets whose mapping changes are flushed before the switch."""
        if running_enclaves:
            raise EnclavesRunning(
                f"{running_enclaves} enclave(s) still running")
        if new_table.geometry != self.table.geometry:
            raise ExceedsCapacity("geometry change is not supported")
        for region in self.sm_regions:
            if new_table.entries.get(region) != self.table.entries.get(region):
                raise SmRegionModified(f"region {region} is reserved")
        affected = set()
        regions = set(self.table.entries) | set(new_table.entries)
        for region in regions:
            if self.table.entries.get(region) != new_table.entries.get(region):
                for base, size in filter(None, (self.table.entries.get(region),
                                                new_table.entries.get(region))):
                    affected.update(range(base, base + size))
        for set_index in affected:
            self.sets[set_index] = []
        self.table = new_table
        return new_table

    def flush_costs(self):
        """Per-region eviction-set size (the model's cost proxy)."""
        ways = self.table.geometry.ways
        return {region: size * ways
                for region, (_, size) in sorted(self.table.entries.items())}
