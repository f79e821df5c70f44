"""Suite-wide hypothesis settings.

Examples are derandomized (drawn from a hash of each test) and no example
database is kept, so every run of the suite checks the same inputs; tests
that need more examples than the default ask for them with @settings.
"""

from hypothesis import settings

settings.register_profile(
    "reproducible", derandomize=True, database=None, max_examples=25, deadline=None
)
settings.load_profile("reproducible")
