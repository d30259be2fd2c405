"""Run the command-line interface: python -m leosrp."""

from .cli import main

main()
