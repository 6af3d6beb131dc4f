"""``python -m smallcox``: the same command line as the ``smallcox`` script."""

from .cli import main

if __name__ == "__main__":
    main()
