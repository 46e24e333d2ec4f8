"""Exception hierarchy for the package."""


class PadicCFError(Exception):
    """Base class for all package errors."""


# field construction / arithmetic
class NotIrreducible(PadicCFError):
    pass


class DiscMismatch(PadicCFError):
    pass


class DivideByZero(PadicCFError, ZeroDivisionError):
    pass


# ideals
class IndexDivisor(PadicCFError):
    pass


class ZeroValuation(PadicCFError):
    """Valuation of zero requested; v_P(0) = +infinity, never an integer."""


class NotIntegralAtI(PadicCFError):
    pass


class NotPrincipal(PadicCFError):
    pass


class SearchExhausted(PadicCFError):
    pass


# geometry
class DependentBasis(PadicCFError):
    pass


class ZeroElement(PadicCFError):
    pass


class CertificationFailed(PadicCFError):
    pass


# constants
class EpsilonNotLessThanOne(PadicCFError):
    pass


class NotAdmissible(PadicCFError):
    pass


# cfengine
class EvenPrime(PadicCFError):
    pass


class FloorFailure(PadicCFError):
    pass


class ZeroDenominator(PadicCFError, ZeroDivisionError):
    pass


# divchain
class NotCoprime(PadicCFError):
    pass


# cli / config
class FieldSpecError(PadicCFError):
    pass
