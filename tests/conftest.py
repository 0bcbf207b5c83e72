from hypothesis import settings

# A fixed example sequence and no deadline, so that a property failure in CI
# reproduces locally under `pytest --hypothesis-profile=ci`.
settings.register_profile("ci", derandomize=True, deadline=None)
