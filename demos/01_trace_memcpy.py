"""
Tracing a copy loop under different leakage and execution models
================================================================

This walkthrough parses a small byte-copy loop, runs it on the machine
model, and then asks what an observer sees under a few different
contracts. The same program produces very different trace sets depending
on what counts as observable (leakage model) and which speculative paths
the observer can force (execution model).
"""

from rmikit import (ARCH, CT, SEQ, SHM, SPEC, STL, ArchState, MemoryLayout,
                    contract_trace_set, parse_program, reg_num,
                    simulate_committed)

# ---------------------------------------------------------------------
# A copy loop: a0 = dst, a1 = src, a2 = len. The guard branch skips the
# loop entirely when len is zero.

SOURCE = """\
add a2, a0, a2
bgeu a0, a2, .end
.loop:
lbu a4, 0(a1)
add a1, a1, 1
add a0, a0, 1
sb a4, -1(a0)
bne a0, a2, .loop
.end:
"""

program = parse_program(SOURCE)
layout = MemoryLayout()   # private [0x1000, 0x2000), shared [0x8000, 0x9000)

# Copy 2 bytes from private 0x1000 to shared 0x8000.
state = ArchState(regs={reg_num("a0"): 0x8000,
                        reg_num("a1"): 0x1000,
                        reg_num("a2"): 2})
state = state.with_store("private", 0x1000, 0x41, 1, pc=0)
state = state.with_store("private", 0x1001, 0x42, 1, pc=0)

final = simulate_committed(program, state, layout).final_state
print("final shared memory:",
      {hex(a): v for a, v in sorted(final.shared_mem.items())})

# ---------------------------------------------------------------------
# The sequential trace under each leakage model. Each model is a
# projection of the one above it: values > pc+addresses > addresses >
# shared addresses only.

for leak in (ARCH, CT, SHM):
    (trace,) = contract_trace_set(program, state, layout, leak, SEQ)
    print(f"\n{leak.kind} / seq trace ({len(trace)} events):")
    for event in trace:
        print("   ", event)

# ---------------------------------------------------------------------
# Under straight-line speculation (stl) the observer may additionally
# run the fall-through path of any taken branch for a bounded window,
# then roll back. With len = 0 the guard is taken, and the wrong path
# executes one loop iteration that touches memory the sequential run
# never would.

empty = ArchState(regs={reg_num("a0"): 0x8000,
                        reg_num("a1"): 0x1000,
                        reg_num("a2"): 0})
for exec_model in (SEQ, STL, SPEC):
    traces = contract_trace_set(program, empty, layout, SHM, exec_model)
    print(f"\nshm / {exec_model.kind}: {len(traces)} trace(s) in the set")
    for trace in sorted(traces):
        print("   ", trace if trace else "(empty)")
