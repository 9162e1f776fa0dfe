"""Hypothesis profiles. The default profile is hypothesis's own; CI runs
tier-1 with `--hypothesis-profile=ci`, which gives the properties that
take their example count from the profile (the differential ones in
test_decode.py, and those of test_llc.py) ten times as many examples,
and prints the reproduction blob of a failing example."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, print_blob=True)
