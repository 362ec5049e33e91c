"""Second-order HMM toolkit for closed-set talking-condition identification."""

__version__ = "0.1.0"
