"""Executable models for speculative-leakage contracts on small assembly
snippets: an interpreter, contract trace generation, hardware defense
modes, brute-force non-interference oracles, a burst-region static
analyzer, and a partitioned-cache model."""

from .asm import (AsmError, Instruction, MalformedOperand, Program,
                  UnknownMnemonic, UnmatchedBurstMarker, UnresolvedLabel,
                  format_program, parse_program, reg_name, reg_num)
from .machine import (ArchState, InvalidPc, MemoryLayout, OutOfRangeAccess,
                      StepEffect, step)
from .contracts import (ARCH, CT, MEM, SEQ, SHM, SPEC, STL,
                        EnumerationCapExceeded, ExecModel, FuelExhausted,
                        InconsistentChoice, LeakageModel, contract_trace,
                        contract_trace_set, simulate_committed)
from .modes import (BURST, BURST_STA, INSECURE, MI6, SAFE, HwMode,
                    ReportProgramMismatch, hw_trace_set, sta_gate)
from .ni import (Policy, StateSpace, check_direct_ni, check_hw_satisfies,
                 check_hw_satisfies_one, check_relative_ni)
from .analyzer import (AnalysisReport, PathExplosion, Violation, analyze,
                       check_self_contained, explain)
from .llc import (EnclavesRunning, ExceedsCapacity, Geometry,
                  OverlappingRanges, PartitionTable, PartitionedCache,
                  RegionOutOfRange, SmRegionModified, remap_set_index)
from .corpus import (CorpusEntry, CorpusIntegrity, load_corpus, load_entry,
                     load_reference_table, verify_corpus, verify_entry)

__version__ = "0.1.0"
