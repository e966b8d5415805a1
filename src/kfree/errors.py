"""Exception hierarchy shared by the whole package.

The CLI maps these onto distinct exit codes, so library code should raise the
most specific class that applies:

* ``DomainError``      -- bad arguments / violated mathematical preconditions
                          (CLI exit code 2, same as usage errors);
* ``PoleError``        -- a parameter sits exactly on a pole / forbidden value;
* ``DegenerateConfigError`` -- an ensemble configuration whose normalizing
                          constant vanishes (weight parameter in the forbidden
                          set), naming the offending factor;
* ``ToleranceError``   -- a numerical routine could not meet the requested
                          tolerance (CLI exit code 3);
* ``NonFiniteError``   -- a result holds an infinity or a NaN, which no
                          artifact may carry (a ``ToleranceError``, exit code 3);
* ``SizeCapError``     -- an enumeration would exceed the configured element
                          cap (CLI exit code 4).
"""


class KfreeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KfreeError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A parameter coincides with a pole of the evaluated expression."""


class DegenerateConfigError(DomainError):
    """The configuration's normalizing product has a vanishing factor."""


class ToleranceError(KfreeError, ArithmeticError):
    """A numerical routine failed to reach the requested tolerance."""


class NonFiniteError(ToleranceError):
    """A result holds a non-finite number: its evaluator left the range binary64 can carry."""


class SizeCapError(KfreeError):
    """An exact enumeration would exceed the configured size cap."""
