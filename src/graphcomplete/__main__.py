"""``python -m graphcomplete``: the command line, without installing the package."""

import sys

from .experiment import main

if __name__ == "__main__":
    sys.exit(main())
