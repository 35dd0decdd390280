"""Perfect-matching extendability analysis of (4,5,6)-fullerene graphs."""

__version__ = "0.1.0"
