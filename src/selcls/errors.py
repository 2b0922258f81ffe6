"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: a NumericFault exits 3 and
every other SelclsError exits 2. Exit 1 is no exception's: it means a
failed gradient check or a failed grid cell, whose error the grid records.
"""


class SelclsError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SelclsError):
    """Invalid configuration, shapes, or incompatible component pairing."""


class ParseError(ConfigurationError):
    """Malformed input file; message carries the offending location."""


class NumericFault(SelclsError):
    """NaN/Inf or divergence encountered where finite values are required."""


class CalibrationError(SelclsError):
    """Threshold fitting is impossible on the given scores."""


class UndefinedRiskError(SelclsError):
    """Selective risk requested over an empty selection."""
