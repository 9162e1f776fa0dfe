"""A list-based LRU model of the partitioned cache, written from the
documented formulas rather than from rmikit.llc, for the differential
property in test_llc.py:

    region = (address >> 25) mod 64
    set    = base(region) + ((address // line_bytes) mod total_sets) mod size(region)

Each set is a list of [tag, region, zero] lines, least recently used
first; a zero-device line never hits. A flush reads one zero-device line
per way of every set of the region's range, with the way at bit 16.
"""

ZERO_DEVICE = 1 << 40


class Unconfigured(Exception):
    """The model's answer where the cache raises RegionOutOfRange."""


class Refused(Exception):
    """The model's answer where the cache refuses a reconfiguration."""


class LruModel:
    def __init__(self, entries, total_sets, ways, line_bytes):
        self.entries = dict(entries)
        self.total_sets = total_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = [[] for _ in range(total_sets)]
        self.accesses = 0

    def set_of(self, address):
        region = (address >> 25) % 64
        if region not in self.entries:
            raise Unconfigured(region)
        base, size = self.entries[region]
        return base + (address // self.line_bytes) % self.total_sets % size

    def access(self, address):
        self.accesses += 1
        region = (address >> 25) % 64
        lines = self.sets[self.set_of(address)]
        tag = address // self.line_bytes
        for i, (t, r, zero) in enumerate(lines):
            if (t, r) == (tag, region):
                lines.append(lines.pop(i))
                return not zero
        lines.append((tag, region, bool(address & ZERO_DEVICE)))
        if len(lines) > self.ways:
            lines.pop(0)
        return False

    def flush(self, region):
        if region not in self.entries:
            raise Unconfigured(region)
        _, size = self.entries[region]
        for offset in range(size):
            for way in range(self.ways):
                self.access(ZERO_DEVICE | (region << 25) | (way << 16)
                            | (offset * self.line_bytes))
        return size * self.ways

    def configure(self, entries, running_enclaves):
        """Refused while an enclave runs or when region 0 (the security
        monitor's) changes; otherwise every set an old or a new range of a
        changed region covers is emptied."""
        if running_enclaves or entries.get(0) != self.entries.get(0):
            raise Refused
        for region in set(self.entries) | set(entries):
            old, new = self.entries.get(region), entries.get(region)
            if old != new:
                for base, size in filter(None, (old, new)):
                    for s in range(base, base + size):
                        self.sets[s] = []
        self.entries = dict(entries)

    def lines_of_region(self, region):
        return [tag for lines in self.sets for tag, r, zero in lines
                if r == region and not zero]
