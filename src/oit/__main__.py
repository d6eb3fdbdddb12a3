"""``python -m oit``: the command line."""

from .cli import main

main()
