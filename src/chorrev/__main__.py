"""``python -m chorrev``: the command-line interface, as the ``chorrev`` script."""

from .cli import main

if __name__ == "__main__":
    main()
