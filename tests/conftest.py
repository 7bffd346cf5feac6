"""Make the package importable from a checkout in the CLI tests' child
processes too: pyproject's `pythonpath` setting reaches only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)
