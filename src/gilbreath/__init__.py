"""Absolute-difference triangle toolkit: Gilbreath-style verification and experiments."""

__version__ = "0.1.0"
