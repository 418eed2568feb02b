"""Suite-wide test settings: hypothesis draws the same examples on every
run, so a tier-1 result does not depend on the run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
