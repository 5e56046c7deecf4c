"""Exception types shared across the package."""


class DegreeTooSmall(ValueError):
    """The construction needs degree d >= 5."""


class MalformedGraph(ValueError):
    """A graph or certificate is malformed, or a graph is not bipartite where
    it must be."""


class TorusTooSmall(ValueError):
    """Torus side length n <= 1 would wrap displacements into spurious short cycles."""


class TooLarge(ValueError):
    """Input exceeds an enumeration guard."""


class GridTooCoarse(ValueError):
    """The sampling grid has no usable points inside the required open boxes."""


class AttemptsExhausted(RuntimeError):
    """No good try was found within the attempt budget."""


class InvalidCertificate(ValueError):
    """A lattice summary was asked of a census with no 4-cycles, which no
    certified lattice has: report builds one only after the census passed
    the certificate."""
