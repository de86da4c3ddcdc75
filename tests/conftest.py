"""Shared test settings.

Property tests draw their examples from a derandomized hypothesis profile
without deadlines, so every run checks the same examples and slow runners
do not fail on timing.  Fixed examples need no example database.
"""

from hypothesis import settings

settings.register_profile("fraclab", derandomize=True, deadline=None,
                           database=None)
settings.load_profile("fraclab")
