"""Exception taxonomy shared by all jumpsmooth modules.

Three families matter to callers (and to the command line front end):

* configuration problems (bad input documents, unknown presets),
* contract violations (wrong stack orders, mismatched objects, bad grids),
* numerical failures (lost brackets, singular derivatives, diverging steps).
"""


class JumpsmoothError(Exception):
    """Base class for everything raised on purpose by this package."""


class ConfigError(JumpsmoothError):
    """Malformed or inconsistent configuration document."""


class ContractError(JumpsmoothError):
    """A call violated an interface precondition (orders, shapes, pairing)."""


class InvalidModelError(JumpsmoothError):
    """A model coefficient outside the model: not finite on an audit grid, a
    negative mark density, or a jump rate outside [0, its bound] at a state."""


class NumericalError(JumpsmoothError):
    """Base class for runtime numerical failures."""


class DomainEscapeError(NumericalError):
    """A bracketed root search could not trap a sign change."""


class NearSingularError(NumericalError):
    """A derivative needed in a denominator fell below tolerance."""


class DegenerateKernelError(NumericalError):
    """The jump amplitude has (numerically) vanishing z-slope where a
    regularizing kernel needs to invert it."""


class StabilityError(NumericalError):
    """Requested explicit time step violates the stability budget."""


class DivergenceError(NumericalError):
    """A state or density became non-finite during stepping."""


class BlowUpError(DivergenceError):
    """A simulated trajectory left the representable range."""


class WindowTooSmallError(NumericalError):
    """Too much transported mass falls outside the computational window."""


class ResolutionError(NumericalError):
    """Not enough usable grid points / samples to produce the requested
    estimate."""


class MassBracketError(NumericalError):
    """A regularizing kernel's quadrature mass left its construction bracket."""


class MassConservationError(NumericalError):
    """Evolved density mass drifted beyond the configured budget."""
