"""Hypothesis profiles. The default profile is hypothesis's own; CI runs
tier-1 with `--hypothesis-profile=ci`, which gives the properties that
take their example count from the profile (the differential ones in
test_decode.py, among them test_state_free_windows_match_oracle, which
checks machine.decode's state-free windows against
tests/step_oracle.py's own rule and windows and the committed read
slots of simulate_committed against its read rule, and those in
test_analyzer.py; those of test_shared_runs.py,
test_cubes_match_tuple_walk, which compares every NI check decided by
cubes on a cold exploration with the plain tuple walk of
tests/ni_oracle.py, whose nodes splice windows run by
tests/step_oracle.py, and the states it serves with the sliced walk's,
and test_warm_exploration_matches_cold, which runs the same checks back
to back on one exploration, compares them with the cold ones and serves
no state twice; test_derived_runs_match_committed_runs in
test_exploration.py, which checks every run kept on a committed path,
the starts of its windows, each window's steps and read slots, and per
view its node and read slots, against simulate_committed, with each
window run by tests/step_oracle.py from its snapshot, or from no core
where the run keeps none, every window there being state-free by the
step oracle's rule (and a splice of those windows, with their slots
listed by the step oracle's read rule)
over tests/snippetgen.py programs, jalr ones under spec included, and
random spaces; test_options_match_oracle_decision_points in
test_trace_dag.py, which compares contracts.Projection.options, the one
list of a run's decision points, under seq, stl, spec and burst mode's
burst-only view, with tests/trace_oracle.py's own derivation over
tests/snippetgen.py programs, jalr ones included;
test_states_that_differ_only_in_irrelevant_slots_share_every_node in
test_slice.py, which runs pairs of states that differ only in slots
outside the dependence slice and compares their nodes under every
projection; and those of test_llc.py, among them
test_cache_matches_list_model, which compares each set's ordered
entries, zero-device lines included, with the LRU model's) ten times as
many examples, and prints the reproduction blob of a failing example."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, print_blob=True)
