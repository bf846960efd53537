"""Shared test settings: one Hypothesis profile for every property test.

Property tests must be reproducible and stay within the suite's time: no
deadline (the first example pays for imports and caches), no example
database left on disk, and the same examples on every run.
"""

from hypothesis import settings

settings.register_profile("protofield", deadline=None, database=None, derandomize=True)
settings.load_profile("protofield")
