"""Numerical laboratory for 3-term progressions under lp-metric gap constraints."""

__version__ = "0.1.0"
