import sys

from .cli import main

# Only a run as a program runs the command, not an import under another name.
if __name__ == "__main__":
    sys.exit(main())
