"""Hypothesis profiles. The default profile is hypothesis's own; CI runs
tier-1 with `--hypothesis-profile=ci`, which gives the properties that
take their example count from the profile (the differential ones in
test_decode.py and test_analyzer.py; those of test_shared_runs.py,
test_cubes_match_tuple_walk, which compares every NI check decided by
cubes on a cold exploration with the tuple walk of tests/ni_oracle.py,
and test_warm_exploration_matches_cold, which runs the same checks back
to back on one exploration, compares them with the cold ones and serves
no state twice; test_derived_runs_match_committed_runs in
test_exploration.py, which checks every run derived from a committed
path, the starts of its windows and its windows, against
simulate_committed over
tests/snippetgen.py programs, jalr ones under spec included, and
random spaces; and
those of test_llc.py, among them test_cache_matches_list_model, which
compares each set's ordered entries, zero-device lines included, with
the LRU model's) ten times as many examples, and prints the
reproduction blob of a failing example."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, print_blob=True)
