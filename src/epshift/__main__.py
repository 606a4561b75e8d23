import sys

from .cli import main

# Under the spawn and forkserver start methods a pool worker imports this
# module as __mp_main__, and must not run the command again.
if __name__ == "__main__":
    sys.exit(main())
