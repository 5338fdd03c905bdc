from hypothesis import settings

# Fixed example sequences keep the suite reproducible; no deadline, because
# per-example time on a loaded host says nothing about correctness.
settings.register_profile("axonsim", derandomize=True, deadline=None)
settings.load_profile("axonsim")
