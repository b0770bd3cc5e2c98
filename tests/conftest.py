"""Session set-up: the tests import poolkit from ``src/`` through pytest's
``pythonpath`` setting, and the processes they start (``python -m
poolkit.cli``, the demos) find it there through PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
