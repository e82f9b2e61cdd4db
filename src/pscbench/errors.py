"""Exception types mapped to process exit codes.

The CLI translates these into exit statuses so batch drivers can tell a
violated geometric hypothesis from a numerical breakdown or a bad config.
"""


class PscbenchError(Exception):
    """Base for all workbench errors."""

    exit_code = 1


class HypothesisViolation(PscbenchError):
    """A geometric hypothesis of the construction fails on the given data.

    Raised by the pipeline's angle stage only: when the maximum section
    angle reaches pi/4, or when the ellipticity margin 1 - |V|^2 =
    1 - tan^2(angle) is at most normal.MARGIN_FLOOR. The two are one
    condition (see the normal module); the margin also refuses angles
    within round-off of pi/4.
    """

    exit_code = 2


class NumericalFailure(PscbenchError):
    """Numerics broke down.

    Singular factorization, residual above tolerance, non-SPD metric data,
    a frame that fails its orientation or unit/orthogonality validation,
    or a conformal factor outside the perturbative regime.
    """

    exit_code = 3


class ConfigError(PscbenchError):
    """Invalid run configuration, or a grid too coarse for a requested
    quantity."""

    exit_code = 4
