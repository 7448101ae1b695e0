"""Put ``src`` on ``PYTHONPATH`` for the ``python -m spatialqr`` subprocesses
some tests start; pytest's own ``pythonpath`` setting reaches only this process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
