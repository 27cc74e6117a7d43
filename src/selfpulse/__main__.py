import sys

from .commands import main

sys.exit(main())
