import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# The same examples on every run, and no example database left behind;
# each test keeps its own max_examples.
settings.register_profile("tsk", derandomize=True, database=None, deadline=None)
settings.load_profile("tsk")
