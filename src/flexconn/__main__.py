"""Entry point for ``python -m flexconn``, the same CLI as ``flexconn``."""

from .cli import main

if __name__ == "__main__":
    main()
