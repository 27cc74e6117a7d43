"""Command-line front end as a library module: ``main(argv)`` runs one command.

It is the front end of ``commands`` with every numerical layer imported up
front, so that code which wraps the layers' functions before calling
``main`` (as ``perfbench/tracer.py`` does) finds them all and sees every
call.  ``python -m selfpulse`` and the ``selfpulse`` script run
``commands.main``, which imports a layer when a command first needs it.
"""

import sys

# commands first: it sets the BLAS thread policy before the layers import numpy
from .commands import build_parser, main  # noqa: F401
from . import center_manifold, cycles, noise, semiclassics, stochastic, svg  # noqa: F401

if __name__ == "__main__":
    sys.exit(main())
