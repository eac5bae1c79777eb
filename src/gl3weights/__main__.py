"""Command-line entry point for `python -m gl3weights`."""

from .cli import main

if __name__ == "__main__":
    main()
