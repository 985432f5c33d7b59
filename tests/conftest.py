"""The tests import kaonlab from this checkout's ``src`` (pyproject's
``pythonpath``); the interpreters some tests start must find it there too."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
