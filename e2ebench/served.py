"""Run the ``repro`` CLI with the per-layer wrappers installed.

The traced ``serve_mixed`` run starts the server as
``python3 e2ebench/served.py serve ...`` instead of ``python3 -m repro
serve ...``; the wrappers are installed before the server builds its
process pool, so forked pool workers record too. The trace directory comes
from the ``E2EBENCH_TRACE_DIR`` environment variable.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_repo_sources  # noqa: E402

use_repo_sources()

import layers  # noqa: E402

layers.install_for_served_child()

from repro.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
