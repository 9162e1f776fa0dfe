"""Partitioned-cache model tests: remapping, configuration, flushing,
the geometries a table accepts, and a differential property against the
list-based LRU model of llc_oracle.py."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.corpus import load_reference_table
from rmikit.llc import (EnclavesRunning, ExceedsCapacity, Geometry,
                        OverlappingRanges, PartitionTable, PartitionedCache,
                        RegionOutOfRange, SmRegionModified, region_of,
                        remap_set_index, zero_device_address)

from llc_oracle import LruModel, Refused, Unconfigured

GEOMETRY = Geometry()


def small_table(entries):
    return PartitionTable(entries=entries, geometry=GEOMETRY)


def test_geometry_defaults():
    assert GEOMETRY.total_sets == 1024


def test_remap_formula():
    table = small_table({0: (8, 4)})
    address = 5 * GEOMETRY.line_bytes     # original index 5, region 0
    assert remap_set_index(address, table) == (0, 8 + (5 % 4))


def test_size_one_collapses_to_base():
    table = small_table({0: (3, 1)})
    for original in (0, 5, 17, 900):
        _, set_index = remap_set_index(original * GEOMETRY.line_bytes, table)
        assert set_index == 3


def test_disjoint_regions_never_share_sets():
    table = small_table({0: (0, 8), 1: (8, 8)})
    addr_r1 = (1 << 25) | (3 * GEOMETRY.line_bytes)
    assert remap_set_index(addr_r1, table)[1] >= 8
    assert remap_set_index(3 * GEOMETRY.line_bytes, table)[1] < 8


def test_unconfigured_region_rejected():
    table = small_table({0: (0, 8)})
    with pytest.raises(RegionOutOfRange):
        remap_set_index(1 << 25, table)


def test_overlap_rejected():
    with pytest.raises(OverlappingRanges):
        small_table({0: (0, 16), 1: (12, 8)})


def test_region_named_twice_in_json_rejected():
    document = {"1": {"base": 16, "size": 8}, "01": {"base": 100, "size": 4},
                "0": {"base": 0, "size": 16}}
    with pytest.raises(ValueError, match="region 1 is listed twice"):
        PartitionTable.from_json(document)
    del document["01"]
    assert PartitionTable.from_json(document).entries == {1: (16, 8), 0: (0, 16)}


def test_oversize_entry_rejected():
    with pytest.raises(ExceedsCapacity):
        small_table({0: (0, 512)})       # size does not fit a 9-bit field
    with pytest.raises(ExceedsCapacity):
        small_table({0: (1020, 8)})      # runs past the last set


def test_reference_layout_accepted():
    table = load_reference_table()
    assert len(table.entries) == 64
    assert table.entries[1] == (16, 256)          # the enclave region
    assert sum(size for _, size in table.entries.values()) == 715


def test_configure_protocol():
    cache = PartitionedCache(small_table({0: (0, 16), 1: (16, 8)}))
    new = small_table({0: (0, 16), 1: (32, 8)})
    with pytest.raises(EnclavesRunning):
        cache.configure(new, running_enclaves=1)
    moved_sm = small_table({0: (64, 16), 1: (16, 8)})
    with pytest.raises(SmRegionModified):
        cache.configure(moved_sm, running_enclaves=0)
    cache.configure(new, running_enclaves=0)
    assert cache.table is new


def test_configure_flushes_affected_sets():
    cache = PartitionedCache(small_table({0: (0, 16), 1: (16, 8)}))
    addr = (1 << 25) | (2 * GEOMETRY.line_bytes)
    cache.access(addr)
    assert cache.access(addr) is True
    cache.configure(small_table({0: (0, 16), 1: (32, 8)}), running_enclaves=0)
    assert cache.access(addr) is False    # old line was flushed


# ------------------------------------------------------------ line identity

def test_bit_31_names_another_line_in_the_same_set():
    cache = PartitionedCache(small_table({0: (0, 16), 1: (16, 8)}))
    low = (1 << 25) | (5 * GEOMETRY.line_bytes)
    high = low | 1 << 31
    assert remap_set_index(low, cache.table) == remap_set_index(high, cache.table)
    assert [cache.access(a) for a in (low, high, low, high)] == [
        False, False, True, True]
    assert cache.lines_of_region(1) == [low // GEOMETRY.line_bytes,
                                        high // GEOMETRY.line_bytes]


def test_zero_device_alias_shares_a_set_and_never_hits():
    cache = PartitionedCache(small_table({0: (0, 16), 1: (16, 8)}))
    dram = (1 << 25) | (5 * GEOMETRY.line_bytes)
    alias = dram | 1 << 40                  # the zero-device bit
    _, set_index = remap_set_index(dram, cache.table)
    assert remap_set_index(alias, cache.table) == (1, set_index)
    assert [cache.access(a) for a in (dram, alias, dram, alias)] == [
        False, False, True, False]
    assert list(cache.sets[set_index]) == [dram // GEOMETRY.line_bytes,
                                           alias // GEOMETRY.line_bytes]
    assert cache.lines_of_region(1) == [dram // GEOMETRY.line_bytes]


def test_moved_region_flushed_and_accessed_agrees_with_model():
    """Configure to a table that moves region 1 and shrinks it, flush it,
    then access it again: after every step the cache agrees with the
    list-based model."""
    entries = {0: (0, 16), 1: (16, 8), 2: (24, 4)}
    moved = {0: (0, 16), 1: (40, 4), 2: (24, 4)}
    cache = PartitionedCache(small_table(entries))
    model = LruModel(entries, GEOMETRY.total_sets, GEOMETRY.ways,
                     GEOMETRY.line_bytes)
    stream = [(region << 25) | (i * GEOMETRY.line_bytes)
              for region in (1, 2) for i in range(0, 60, 3)]

    def agree():
        assert cache.accesses == model.accesses
        assert _entries(cache, GEOMETRY) == model.sets
        for region in entries:
            assert cache.lines_of_region(region) == model.lines_of_region(region)

    assert [cache.access(a) for a in stream] == [model.access(a) for a in stream]
    agree()
    cache.configure(small_table(moved), running_enclaves=0)
    model.configure(moved, running_enclaves=0)
    agree()
    assert cache.flush_region(1) == model.flush(1)
    agree()
    for _ in range(2):
        assert [cache.access(a) for a in stream] == [
            model.access(a) for a in stream]
        agree()
    assert cache.lines_of_region(1) and cache.lines_of_region(2)


def test_flush_cost_and_completeness():
    table = small_table({0: (0, 16), 1: (16, 4)})
    cache = PartitionedCache(table)
    # fill the 4-set x 16-way region completely
    for original in range(4 * GEOMETRY.ways):
        cache.access((1 << 25) | (original * GEOMETRY.line_bytes))
    filled = cache.lines_of_region(1)
    assert len(filled) == 4 * GEOMETRY.ways
    count = cache.flush_region(1)
    assert count == 4 * GEOMETRY.ways == 64
    assert cache.lines_of_region(1) == []


def test_flush_empty_cache_noop():
    cache = PartitionedCache(small_table({0: (0, 4)}))
    assert cache.flush_region(0) == 4 * GEOMETRY.ways
    assert cache.lines_of_region(0) == []


def test_flush_leaves_other_region_untouched():
    cache = PartitionedCache(small_table({0: (0, 4), 1: (4, 4)}))
    other = 7 * GEOMETRY.line_bytes
    cache.access(other)
    cache.flush_region(1)
    assert cache.access(other) is True    # still cached


def test_flush_cost_monotone_in_size():
    sizes = [1, 2, 8, 64, 256]
    costs = []
    for size in sizes:
        cache = PartitionedCache(small_table({0: (0, size)}))
        costs.append(cache.flush_region(0))
    assert costs == sorted(costs) and len(set(costs)) == len(costs)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_partition_isolation_random_sequences(seed):
    """Accesses from one region never evict lines of another."""
    rng = random.Random(seed)
    table = small_table({0: (0, 8), 1: (8, 4), 2: (12, 16)})
    cache = PartitionedCache(table)
    victim = (2 << 25) | (5 * GEOMETRY.line_bytes)
    cache.access(victim)
    for _ in range(300):
        region = rng.choice([0, 1])
        original = rng.randrange(1024)
        cache.access((region << 25) | (original * GEOMETRY.line_bytes))
    assert cache.access(victim) is True


@given(address=st.integers(min_value=0, max_value=(1 << 31) - 1))
def test_remap_total_and_deterministic(address):
    table = small_table({region: (region * 16, 16) for region in range(64)})
    first = remap_set_index(address, table)
    assert first == remap_set_index(address, table)
    region, set_index = first
    assert region == region_of(address)
    base, size = table.entries[region]
    assert base <= set_index < base + size


def test_table_is_resolved_into_a_range_per_region():
    table = small_table({0: (0, 16), 5: (16, 4)})
    assert len(table.ranges) == 64
    assert table.ranges[0] == (0, 16) and table.ranges[5] == (16, 4)
    assert [r for r, span in enumerate(table.ranges) if span is None] == [
        r for r in range(64) if r not in (0, 5)]


# ------------------------------------------------------------ geometry

def _eviction_counts(geometry, size):
    """Zero-device lines that a flush of a `size`-set range puts in each
    of the range's sets (by set offset), computed without a table."""
    return Counter(
        zero_device_address(1, offset, way, geometry) // geometry.line_bytes
        % geometry.total_sets % size
        for offset in range(size) for way in range(geometry.ways))


@pytest.mark.parametrize("geometry", [
    Geometry(total_bytes=256 * 16 * 1024, ways=16, line_bytes=256),
    Geometry(total_bytes=64 * 16 * 1000, ways=16, line_bytes=64)],
    ids=["lines-past-bit-16", "1000-sets"])
def test_geometry_whose_flush_leaves_lines_refused(geometry):
    counts = _eviction_counts(geometry, 300)
    # some set of a 300-set range would get fewer zero lines than ways,
    # so a flush would leave real lines in it
    assert min(counts[offset] for offset in range(300)) < geometry.ways
    with pytest.raises(ExceedsCapacity):
        PartitionTable({0: (0, 16), 1: (16, 300)}, geometry)


@pytest.mark.parametrize("geometry", [
    Geometry(total_bytes=128 * 16 * 1024, ways=16, line_bytes=128),
    Geometry(total_bytes=48 * 16 * 64, ways=16, line_bytes=48),
    Geometry(total_bytes=64 * 513 * 16, ways=513, line_bytes=64),
    Geometry(total_bytes=64 * 16 * 1024, ways=0, line_bytes=64),
    Geometry(total_bytes=64 * 16 * 1024, ways=16, line_bytes=0)],
    ids=["span-past-bit-16", "48-byte-lines", "513-ways", "no-ways",
         "no-line-size"])
def test_geometry_past_the_eviction_set_encoding_refused(geometry):
    with pytest.raises(ExceedsCapacity):
        PartitionTable({0: (0, 1)}, geometry)


@pytest.mark.parametrize("geometry", [
    Geometry(),
    Geometry(total_bytes=4096 * 2 * 16, ways=2, line_bytes=4096),
    Geometry(total_bytes=64 * 512 * 4, ways=512, line_bytes=64),
    Geometry(total_bytes=1, ways=1, line_bytes=1)],
    ids=["default", "4096-byte-lines", "512-ways", "one-set"])
def test_accepted_geometry_flushes_every_line(geometry):
    size = min(geometry.total_sets, 256)     # a size field holds 9 bits
    assert set(_eviction_counts(geometry, size).values()) == {geometry.ways}
    cache = PartitionedCache(PartitionTable({1: (0, size)}, geometry))
    for original in range(size * geometry.ways):
        cache.access((1 << 25) | (original * geometry.line_bytes))
    assert len(cache.lines_of_region(1)) == size * geometry.ways
    assert cache.flush_region(1) == size * geometry.ways
    assert cache.lines_of_region(1) == []


# ------------------------------------------- flush against the eviction walk

def _walk(cache, region):
    """The flush that flush_region replaced: read the zero-device eviction
    set, one access per way of each set of the region's range."""
    _, size = cache.table.range_of(region)
    geometry = cache.table.geometry
    count = 0
    for offset in range(size):
        for way in range(geometry.ways):
            cache.access(zero_device_address(region, offset, way, geometry))
            count += 1
    return count


def _items(cache):
    return [list(lines.items()) for lines in cache.sets]


def _fill(cache):
    """Every third line of a region-1 stream twice the size of its range,
    so sets are partly filled, and one line of region 0."""
    geometry = cache.table.geometry
    _, size = cache.table.range_of(1)
    for original in range(0, 2 * size * geometry.ways, 3):
        cache.access((1 << 25) | (original * geometry.line_bytes))
    cache.access(5 * geometry.line_bytes)


FLUSH_CASES = {
    "empty": (GEOMETRY, {0: (0, 16), 1: (16, 8)}, lambda cache: None),
    "partly-filled": (GEOMETRY, {0: (0, 16), 1: (16, 8)}, _fill),
    "second-flush": (GEOMETRY, {0: (0, 16), 1: (16, 8)},
                     lambda cache: _walk(cache, 1)),
    "one-set": (GEOMETRY, {0: (0, 16), 1: (16, 1)}, _fill),
    "512-ways": (Geometry(total_bytes=64 * 512 * 4, ways=512, line_bytes=64),
                 {0: (0, 1), 1: (1, 3)}, _fill),
    "4096-byte-lines": (
        Geometry(total_bytes=4096 * 2 * 16, ways=2, line_bytes=4096),
        {0: (0, 4), 1: (4, 12)}, _fill),
}


@pytest.mark.parametrize("case", FLUSH_CASES)
def test_flush_region_leaves_what_the_eviction_walk_leaves(case):
    """The return value, `accesses` and every set's ordered entries after
    flush_region are those after the walk it replaced, on a twin cache."""
    geometry, entries, prepare = FLUSH_CASES[case]
    flushed, walked = (PartitionedCache(PartitionTable(entries, geometry))
                       for _ in range(2))
    prepare(flushed)
    prepare(walked)
    assert flushed.flush_region(1) == _walk(walked, 1)
    assert flushed.accesses == walked.accesses
    assert _items(flushed) == _items(walked)


def test_flush_of_a_region_without_range_changes_nothing():
    cache = PartitionedCache(small_table({0: (0, 16), 1: (16, 8)}))
    _fill(cache)
    before = _items(cache), cache.accesses
    with pytest.raises(RegionOutOfRange):
        cache.flush_region(5)
    assert (_items(cache), cache.accesses) == before


# ---------------------------------------------- differential against a model

REGIONS = (0, 1, 2, 63)      # region 5 never gets a range


@st.composite
def geometries(draw):
    """Small geometries the table accepts."""
    line_shift = draw(st.integers(0, 12))
    total_sets = 1 << draw(st.integers(0, min(4, 16 - line_shift)))
    ways = draw(st.integers(1, 4))
    line_bytes = 1 << line_shift
    return Geometry(total_bytes=total_sets * ways * line_bytes, ways=ways,
                    line_bytes=line_bytes)


def _draw_entries(data, total_sets, fixed, regions):
    """`fixed` plus disjoint ranges, in the sets it leaves free, for a
    random subset of `regions`."""
    entries = dict(fixed)
    taken = {s for base, size in fixed.values() for s in range(base, base + size)}
    free = [s for s in range(total_sets) if s not in taken]
    for region in data.draw(st.permutations(regions)):
        if not free or not data.draw(st.booleans()):
            continue
        base = data.draw(st.sampled_from(free))
        run = 1
        while base + run in free:
            run += 1
        size = data.draw(st.integers(1, run))
        entries[region] = (base, size)
        free = [s for s in free if not base <= s < base + size]
    return entries


def _draw_address(data, geometry):
    region = data.draw(st.sampled_from(REGIONS + (5,)))
    line = data.draw(st.integers(0, 2 * geometry.total_sets * geometry.ways))
    low = data.draw(st.integers(0, geometry.line_bytes - 1))
    high = data.draw(st.sampled_from((0, 0, 1 << 31, 1 << 40)))
    return high | (region << 25) | (line * geometry.line_bytes + low)


def _outcome(call, *args):
    """What a call returned, or the kind of refusal it raised (the cache's
    errors and the model's paired by meaning)."""
    try:
        return call(*args)
    except (RegionOutOfRange, Unconfigured):
        return "no range"
    except (EnclavesRunning, SmRegionModified, Refused):
        return "refused"


@settings(deadline=None)
@given(geometry=geometries(), data=st.data())
def test_cache_matches_list_model(geometry, data):
    """Every hit and miss, every change of `accesses`, the lines of every
    region, the set each accessed line lands in, and each set's ordered
    entries (tag, region, zero), zero-device lines and LRU order
    included, agree with the list-based LRU model, over access, flush and
    configure sequences."""
    entries = _draw_entries(data, geometry.total_sets, {}, REGIONS)
    cache = PartitionedCache(PartitionTable(entries, geometry))
    model = LruModel(entries, geometry.total_sets, geometry.ways,
                     geometry.line_bytes)
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(("access",) * 4 + ("flush", "configure")))
        if op == "access":
            address = _draw_address(data, geometry)
            hit = _outcome(cache.access, address)
            assert hit == _outcome(model.access, address)
            if hit != "no range":
                _, set_index = remap_set_index(address, cache.table)
                assert set_index == model.set_of(address)
                assert next(reversed(cache.sets[set_index])) == (
                    address // geometry.line_bytes)
        elif op == "flush":
            region = data.draw(st.sampled_from(REGIONS + (5,)))
            assert _outcome(cache.flush_region, region) == _outcome(
                model.flush, region)
        else:
            current = cache.table.entries
            if data.draw(st.booleans()):    # keep the security monitor's range
                fixed = {0: current[0]} if 0 in current else {}
                new = _draw_entries(data, geometry.total_sets, fixed, REGIONS[1:])
            else:
                new = _draw_entries(data, geometry.total_sets, {}, REGIONS)
            running = data.draw(st.sampled_from((0, 0, 0, 2)))
            before, table = cache.table, PartitionTable(new, geometry)
            refused = _outcome(model.configure, new, running) == "refused"
            result = _outcome(cache.configure, table, running)
            assert result == "refused" if refused else result is table
            assert cache.table is (before if refused else table)
        assert cache.accesses == model.accesses
        for region in range(64):
            assert cache.lines_of_region(region) == model.lines_of_region(region)
        assert _entries(cache, geometry) == model.sets


def _entries(cache, geometry):
    """Each set's ordered (tag, region, zero) entries, the region and the
    zero-device flag derived from the tag by the documented formulas; a
    set's value for a tag is what a hit on it returns."""
    entries = []
    for lines in cache.sets:
        entries.append([])
        for tag, hit in lines.items():
            address = tag * geometry.line_bytes
            zero = bool(address >> 40 & 1)
            assert hit is not zero
            entries[-1].append((tag, (address >> 25) % 64, zero))
    return entries
