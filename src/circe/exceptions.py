"""Error types shared across the package.

ConfigError covers bad user input (shapes, parameter ranges, config files)
and maps to CLI exit code 2. NumericalError covers linear-algebra failures
that survive the jitter ladder and maps to exit code 3.
"""

import zipfile

# what np.load and the reads of its fields raise on a file that is not the
# npz a loader expects; the loaders raise ConfigError naming the file instead
BAD_NPZ_ERRORS = (KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile)


class CirceError(Exception):
    """Base class for package errors."""


class ConfigError(CirceError, ValueError):
    """Invalid configuration, argument value, or input shape."""


class NumericalError(CirceError, RuntimeError):
    """A numerical operation failed beyond recovery (non-PSD solve, bad residual)."""
