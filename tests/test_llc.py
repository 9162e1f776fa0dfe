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
    region, and the set each accessed line lands in agree with the
    list-based LRU model, over access, flush and configure sequences."""
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
                region, set_index = remap_set_index(address, cache.table)
                assert set_index == model.set_of(address)
                assert next(reversed(cache.sets[set_index])) == (
                    address // geometry.line_bytes, region)
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
