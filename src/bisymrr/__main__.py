import sys

from .parser import main

if __name__ == "__main__":
    sys.exit(main())
