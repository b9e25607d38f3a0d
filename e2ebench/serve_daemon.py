"""Start a ``repro serve`` daemon for the ``serve-mixed`` workload.

Usage: ``python3 e2ebench/serve_daemon.py SOCKET_PATH`` with
``REPRO_SERVE_DIR`` and ``REPRO_CACHE_DIR`` set.  When
``E2EBENCH_LAYER_DIR`` is set the layer wrappers are installed and each
process writes its totals there at exit.

The wrappers go in at import time, outside the ``__main__`` guard, on
purpose: the daemon's workers are started with the ``spawn`` method,
which re-imports this script in every worker as ``__mp_main__``, so the
workers are traced exactly like the daemon.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

if os.environ.get("E2EBENCH_LAYER_DIR"):
    from layers import install_with_dump

    install_with_dump(os.environ["E2EBENCH_LAYER_DIR"])


if __name__ == "__main__":
    from repro.serve.daemon import ServeConfig, serve

    config = ServeConfig.from_env(workers=2, socket_path=Path(sys.argv[1]))
    sys.exit(serve(config))
