"""``python -m qmeansim``: the command-line interface of :mod:`qmeansim.cli`."""

from .cli import entry

entry()
