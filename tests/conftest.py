"""Session-wide test settings.

Hypothesis runs derandomized and without its example database, so the
suite draws the same examples on every run and every checkout, whatever
a local .hypothesis/ directory holds.  Explicit @example cases still run,
and per-test @settings (max_examples, deadline) still apply.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
