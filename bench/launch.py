"""Run the smx command line from this checkout's ``src`` without installing it.

    python3 bench/launch.py add a.smx b.smx -o c.smx   # same as: smx add ...
    python3 bench/launch.py --import-only              # start, import smx.cli, exit

There is no ``smx`` console script unless the package is installed, and no
``smx/__main__.py``, so the benchmark starts the CLI through this file.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from smx.cli import main  # noqa: E402

if __name__ == "__main__" and sys.argv[1:] != ["--import-only"]:
    main()
