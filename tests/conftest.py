"""One hypothesis profile for the whole suite.

Examples are derandomized, so every run draws the same cases, and no
per-example deadline applies, so a property test cannot fail on timing
alone on a loaded machine.  A test's own ``@settings`` may still set its
example count.
"""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
