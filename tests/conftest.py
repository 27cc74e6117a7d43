"""Let the ``python -m selfpulse`` subprocesses of the CLI tests import the
package from this checkout's ``src/`` when it is not installed; pytest's own
``pythonpath`` setting reaches only the test process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
