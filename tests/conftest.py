"""Settings shared by the test suite.

Every property test runs under one hypothesis profile: derandomized, so each
run tries the same examples; with a fixed budget of 100 examples, the
library's default, unless a test sets its own with
``@settings(max_examples=...)``; and with no deadline, so a slow machine
cannot fail a test.
"""

from hypothesis import settings

settings.register_profile(
    "emeasure", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("emeasure")
