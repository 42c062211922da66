"""Fractional quantum and statistical mechanics in one dimension."""

__version__ = "0.1.0"
