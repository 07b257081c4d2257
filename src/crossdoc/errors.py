"""Exception hierarchy shared across the package.

The CLI maps every one of these onto a process exit code: configuration
problems (``ConfigError``) exit 1, data/file problems (``DataError``,
``FormatError``) exit 2, numeric failures (``NumericError``) exit 3, and
contract or shape violations (``ContractError``, ``ShapeError``, or any other
``CrossdocError``) exit 4.
"""


class CrossdocError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CrossdocError):
    """Operands have incompatible shapes."""


class ContractError(CrossdocError):
    """An operation was called outside its contract (e.g. non-scalar backward)."""


class ConfigError(CrossdocError):
    """Invalid configuration value or combination."""


class DataError(CrossdocError):
    """Malformed input data (out-of-vocabulary id, bad label, ...)."""


class FormatError(CrossdocError):
    """Corrupt or unsupported on-disk container."""


class NumericError(CrossdocError):
    """Numeric domain violation or non-finite value where finite is required."""
