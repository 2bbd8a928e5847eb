"""Entry point for `python -m loeschian`: the same CLI as the console script."""

from .cli import main

if __name__ == "__main__":
    main()
