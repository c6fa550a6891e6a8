"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and NumericalDegeneracyError to
exit code 3; everything else propagates normally.
"""


class RelaycmError(Exception):
    """Base class for package-specific failures."""


class ConfigError(RelaycmError):
    """Invalid configuration: bad enum value, malformed file, unusable parameter combination."""


class NumericalDegeneracyError(RelaycmError):
    """A computation lost all probability mass and no finite answer exists."""


class CollisionError(RelaycmError):
    """A container write touched a region that is not free."""
