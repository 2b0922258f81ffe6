"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, numeric faults exit 3, failed checks exit 1.
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
