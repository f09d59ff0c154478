import os
import sys

from hypothesis import HealthCheck, settings

# The dense reference arithmetic lives in bench/reference.py, which imports nothing from smx;
# test_tools.py imports the scripts in tools/.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "bench"), os.path.join(_ROOT, "tools")]

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")
