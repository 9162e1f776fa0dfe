"""Reconfigurable last-level-cache set partitioning with zero-device flush.

Physical memory is divided into 64 regions of 32MB. A range table maps
each region to a contiguous range of cache sets:

    set = base + (original_index mod size)

A table is immutable and validated once, on construction, which also
resolves it into a 64-slot tuple indexed by region, holding (base, size)
or None for a region with no range.

Line tags are full line numbers (address >> log2 line_bytes). A tag
keeps the entire original set index, so arbitrarily small ranges stay
unambiguous, and the region too (its six bits from 25 - log2 line_bytes
up), so the tag alone names a line. Each cache set is a dict from tag
to what a hit on it returns: True for a DRAM line, False for a
zero-device line, least recently used first. The cache resolves its
current table once, per region, into the tuple of that region's set
dicts (None for a region with no range), so an access indexes that tuple
with a shift, a mask and one modulo. A flush and a reconfiguration
update the set dicts in place, so the resolved tuples stay valid.

The hardware flushes a region by reading an eviction set in a
zero-device address space that aliases the region's cache indexing but
always returns zeros. The eviction set puts the set offset below bit 16
and the way in bits 16 to 24, so a table is accepted only on a geometry
where that set covers every (set, way) of a range: power-of-two line
size and set count, a line size times set count of at most 1 << 16, and
at most 1 << 9 ways. On such a geometry the walk's outcome is fixed:
each set of the range ends up holding exactly its offset's `ways`
zero-device lines, in way order. The model writes that outcome
directly; the flush still costs size x ways accesses, counted in
`accesses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .machine import json_int

NUM_REGIONS = 64
REGION_MASK = NUM_REGIONS - 1
REGION_SHIFT = 25            # 32MB region granularity
WAY_SHIFT = 16               # the way's bits in a zero-device address
TABLE_BITS = 1216            # 64 entries * (10-bit base + 9-bit size)
BASE_BITS = 10
SIZE_BITS = 9
ZERO_DEVICE_BASE = 1 << 40   # alias bit outside the modeled DRAM range
SM_REGIONS = frozenset({0})  # regions reserved for the security monitor


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

    @cached_property
    def total_sets(self):
        return self.total_bytes // (self.ways * self.line_bytes)


def _power_of_two(n):
    return n > 0 and n & (n - 1) == 0


@dataclass(frozen=True)
class PartitionTable:
    """Per-region (base, size) set-index ranges. A table is immutable:
    `ranges` is resolved from `entries` once, on construction, so the
    entries must not change afterwards (build a new table instead)."""
    entries: dict          # region id -> (base_set, size_sets)
    geometry: Geometry = Geometry()

    def __post_init__(self):
        geometry = self.geometry
        if not 1 <= geometry.ways <= 1 << (REGION_SHIFT - WAY_SHIFT):
            raise ExceedsCapacity(
                f"{geometry.ways} ways do not fit the zero-device eviction "
                f"set's {REGION_SHIFT - WAY_SHIFT} way bits")
        line_bytes = geometry.line_bytes
        if not (_power_of_two(line_bytes) and _power_of_two(geometry.total_sets)
                and line_bytes * geometry.total_sets <= 1 << WAY_SHIFT):
            raise ExceedsCapacity(
                f"{geometry}: the line size and the set count must be powers "
                f"of two spanning at most {1 << WAY_SHIFT} bytes, or a "
                f"zero-device flush misses lines")
        total = geometry.total_sets
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
        # region id -> (base, size), or None for a region with no range
        object.__setattr__(self, "ranges", tuple(
            self.entries.get(region) for region in range(NUM_REGIONS)))

    def range_of(self, region):
        if region not in self.entries:
            raise _no_range(region)
        return self.entries[region]

    @classmethod
    def from_json(cls, data):
        """A table from {region: {"base": ..., "size": ...}}; a region
        named twice, under two spellings such as "1" and "01", raises
        ValueError."""
        entries = {}
        for name, spec in data.items():
            region = int(name)
            if region in entries:
                raise ValueError(f"region {region} is listed twice")
            entries[region] = (json_int(spec["base"]), json_int(spec["size"]))
        return cls(entries)

    def to_json(self):
        return {str(region): {"base": base, "size": size}
                for region, (base, size) in sorted(self.entries.items())}


def _no_range(region):
    return RegionOutOfRange(f"region {region} has no configured range")


def region_of(address):
    return (address >> REGION_SHIFT) % NUM_REGIONS


def remap_set_index(address, table):
    """(region id, cache set) for a physical or zero-device address, by
    the documented formula. PartitionedCache.access finds the same set
    through the region's resolved tuple of set dicts (see _bind)."""
    region = (address >> REGION_SHIFT) % NUM_REGIONS
    span = table.ranges[region]
    if span is None:
        raise _no_range(region)
    base, size = span
    geometry = table.geometry
    return region, base + address // geometry.line_bytes % geometry.total_sets % size


def zero_device_address(region, set_offset, way_index, geometry=Geometry()):
    """A zero-device address aliasing the given region whose original set
    index equals set_offset; way_index varies the tag only."""
    return (ZERO_DEVICE_BASE
            | (region << REGION_SHIFT)
            | (way_index << WAY_SHIFT)
            | (set_offset * geometry.line_bytes))


class PartitionedCache:
    def __init__(self, table):
        self.sets = [{} for _ in range(table.geometry.total_sets)]
        self.accesses = 0
        self._bind(table)

    def _bind(self, table):
        """Make `table` current and resolve it for access: per region, the
        tuple of the set dicts of its range (None for a region with no
        range), and the line shift and set mask that the table's
        power-of-two geometry allows in place of // and %. The tuples
        hold the dicts of `sets`, which are only ever updated in place."""
        self.table = table
        geometry = table.geometry
        self._region_sets = tuple(
            None if span is None else tuple(self.sets[span[0]:span[0] + span[1]])
            for span in table.ranges)
        self._line_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = geometry.total_sets - 1
        self._ways = geometry.ways

    def access(self, address):
        """LRU lookup/fill; returns True on hit. Zero-device reads always
        miss architecturally but still allocate (that is their purpose):
        a set maps each line number to what a hit on it returns. The set
        is remap_set_index's: entry (line mod total_sets) mod size of the
        region's resolved tuple."""
        self.accesses += 1
        region_sets = self._region_sets[address >> REGION_SHIFT & REGION_MASK]
        if region_sets is None:
            raise _no_range(address >> REGION_SHIFT & REGION_MASK)
        line = address >> self._line_shift
        lines = region_sets[(line & self._set_mask) % len(region_sets)]
        hit = lines.pop(line, None)
        if hit is not None:
            lines[line] = hit                   # most recent last
            return hit
        lines[line] = not address & ZERO_DEVICE_BASE
        if len(lines) > self._ways:
            del lines[next(iter(lines))]
        return False

    def lines_of_region(self, region):
        """Tags of the region's cached lines, zero-device lines excluded;
        the region is read from each tag."""
        shift = REGION_SHIFT - self._line_shift
        return [line for lines in self.sets for line, hit in lines.items()
                if hit and line >> shift & REGION_MASK == region]

    def flush_region(self, region):
        """Evict every line of `region` by writing what reading its
        zero-device eviction set leaves behind: each set of the range
        holds exactly its offset's `ways` zero-device lines, in way
        order. The set dicts are refilled in place. The reads are still
        counted in `accesses`, and the number of them (size_sets x ways)
        is returned."""
        _, size = self.table.range_of(region)
        geometry = self.table.geometry
        ways = geometry.ways
        # The table's geometry condition (power-of-two line size and set
        # count spanning at most 1 << WAY_SHIFT bytes) makes the eviction
        # line of (offset, way) that of (0, way) plus offset, landing in
        # set base + offset by access's formula, with distinct tags per
        # way; reading them all leaves each set holding just those lines.
        way_lines = [zero_device_address(region, 0, way, geometry)
                     >> self._line_shift for way in range(ways)]
        for offset, lines in enumerate(self._region_sets[region]):
            lines.clear()
            for line in way_lines:
                lines[line + offset] = False
        self.accesses += size * ways
        return size * ways

    def configure(self, new_table, running_enclaves):
        """Validated reconfiguration: only allowed with no enclave running
        and without touching the ranges reserved for the security monitor;
        sets whose mapping changes are emptied in place before the switch."""
        if running_enclaves:
            raise EnclavesRunning(
                f"{running_enclaves} enclave(s) still running")
        if new_table.geometry != self.table.geometry:
            raise ExceedsCapacity("geometry change is not supported")
        for region in SM_REGIONS:
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
            self.sets[set_index].clear()
        self._bind(new_table)
        return new_table

    def flush_costs(self):
        """Per-region eviction-set size (the model's cost proxy)."""
        ways = self.table.geometry.ways
        return {region: size * ways
                for region, (_, size) in sorted(self.table.entries.items())}
