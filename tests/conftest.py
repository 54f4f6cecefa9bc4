"""Hypothesis settings shared by the property tests.

The examples are derived from each test function alone and no failure
database is kept, so every run draws the same examples; no deadline applies,
since a loaded machine can slow any single example.
"""

from hypothesis import settings

settings.register_profile("climbench", deadline=None, derandomize=True,
                          database=None, max_examples=100)
settings.load_profile("climbench")
