"""Reference models the benchmark checks rmikit's outputs against.

Written from the documented semantics, not from rmikit's code paths:
closed-form shm trace sets of the two corpus programs the ladders use,
and an LRU model of the partitioned cache built from the set-index
formula. Nothing here imports rmikit.
"""

ROLLBACK = ("rollback",)
GADGET_BOUND = 4          # spectre_v1: array1 holds 4 elements
ARRAY1, ARRAY2 = 0x1000, 0x8000


def shared(address):
    return ("addr", address, "shared")


def gadget_traces(a0, private_mem, exec_kind):
    """shm trace set of spectre_v1 from a state with index a0.

    In bounds, the committed path reads array1[a0] and touches its line of
    array2; under spec the guard's wrong arm jumps to `done`, whose window
    is empty. Out of bounds, the committed path touches nothing; under stl
    and spec the guard's fall-through window reads array1[a0] and touches
    its line (seven instructions, inside the depth of 8).
    """
    line = shared(ARRAY2 + 64 * private_mem.get(ARRAY1 + a0, 0))
    if a0 < GADGET_BOUND:
        committed = (line,)
        if exec_kind == "spec":
            return frozenset({committed, (ROLLBACK, line)})
        return frozenset({committed})
    if exec_kind == "seq":
        return frozenset({()})
    return frozenset({(), (line, ROLLBACK)})


def gadget_public(a0, private_mem):
    """The attacker's view of a gadget state: the index and the public
    in-bounds cell (pc and shared memory are equal in every state)."""
    return (a0, private_mem.get(0x1002, 0))


def copy_traces_len0(program, dest, exec_kind):
    """shm trace set of a copy loop with length 0 (guard taken).

    seq: nothing is copied. stl and spec: the guard's fall-through window.
    In memcpy_left it runs one loop body and stores to dest (visible,
    dest is shared); in memcpy_right the BURST_ON marker stops it at once.
    """
    if exec_kind == "seq":
        return frozenset({()})
    if program == "memcpy_left":
        return frozenset({(), (shared(dest), ROLLBACK)})
    return frozenset({(), (ROLLBACK,)})


def copy_trace_count(n, exec_kind):
    """Traces of one copy-loop state with length n >= 1.

    n + 1 dynamic branches: the guard (not taken) and n loop back-edges
    (n - 1 taken, the last not). Under spec each has one wrong arm; under
    stl only the n - 1 taken ones do. Every window ends in a rollback and
    windows sit between distinct store events, so all choices differ.
    """
    return 2 ** (n + 1) if exec_kind == "spec" else 2 ** (n - 1)


class LruCache:
    """Set-partitioned LRU cache from the documented formulas:

        region = (address >> 25) mod 64
        set    = base(region) + ((address // 64) mod total_sets) mod size(region)

    A line is (tag, region, zero); zero-device lines never hit. A flush
    reads one zero-device line per way of every set of the region.
    """

    ZERO_DEVICE = 1 << 40

    def __init__(self, entries, total_sets=1024, ways=16, line_bytes=64):
        self.entries = dict(entries)
        self.total_sets = total_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = [[] for _ in range(total_sets)]

    def access(self, address):
        region = (address >> 25) % 64
        base, size = self.entries[region]
        tag = address // self.line_bytes
        lines = self.sets[base + (tag % self.total_sets) % size]
        for i, (t, r, zero) in enumerate(lines):
            if t == tag and r == region:
                lines.append(lines.pop(i))
                return not zero
        lines.append((tag, region, bool(address & self.ZERO_DEVICE)))
        if len(lines) > self.ways:
            lines.pop(0)
        return False

    def flush(self, region):
        _, size = self.entries[region]
        for offset in range(size):
            for way in range(self.ways):
                self.access(self.ZERO_DEVICE | (region << 25) | (way << 16)
                            | (offset * self.line_bytes))
        return size * self.ways

    def configure(self, entries):
        for region in set(self.entries) | set(entries):
            old, new = self.entries.get(region), entries.get(region)
            if old != new:
                for base, size in filter(None, (old, new)):
                    for s in range(base, base + size):
                        self.sets[s] = []
        self.entries = dict(entries)
