"""Exception hierarchy.

``EngineInvariantError`` and its subclasses flag conditions the theory
rules out for valid inputs; seeing one means either the input violated
a hypothesis that was certified earlier or the engine has a bug, so
they are never caught internally.
"""


class OrenakaError(Exception):
    """Base class for all errors raised by this package."""


class NoSolutionError(OrenakaError):
    """An affine linear system has no solution.

    Raised by a sequence-pair stage, ``stage`` is i and ``index`` the W_i
    basis vector k whose delta_{i,r} image has no solution; both are
    None elsewhere."""

    def __init__(self, message, stage=None, index=None):
        super().__init__(message)
        self.stage = stage
        self.index = index


class NotInvertibleError(OrenakaError):
    """A matrix that must be invertible is singular."""


class NotAdmissibleError(OrenakaError):
    """An automorphism does not preserve R, or a derivation lift
    violates delta(R) <= R(x)V + V(x)R."""


class CertificationError(OrenakaError):
    """Koszul complex exactness failed at some position within the
    requested degree bound.

    ``dims[i]`` is dim W_i (x) A_{m-i} in the failing degree m and
    ``ranks[i]`` the rank over Q of the differential out of it."""

    def __init__(self, message, degree=None, position=None, dims=None, ranks=None):
        super().__init__(message)
        self.degree = degree
        self.position = position
        self.dims = dims
        self.ranks = ranks


class NotASRegularError(OrenakaError):
    """The finite AS-regularity checks failed."""


class NonUniqueTwistError(OrenakaError):
    """The twist-condition solve for the Nakayama automorphism had free
    variables; the input superpotential is degenerate."""


class CasePreconditionError(OrenakaError):
    """Parameters passed to a catalog solution case violate that case's
    preconditions."""


class UnknownParameterError(CasePreconditionError):
    """A catalog case was given a parameter name it does not accept;
    the CLI reports it as malformed input (exit 1)."""


class EngineInvariantError(OrenakaError):
    """A condition guaranteed by the certified hypotheses failed."""


class LeftImageEscapeError(EngineInvariantError):
    """A left-tower map's image left V(x)W_i: the image of W_i basis
    vector ``index`` at stage ``stage`` = i."""

    def __init__(self, message, stage=None, index=None):
        super().__init__(message)
        self.stage = stage
        self.index = index


class AutomorphismCheckFailedError(EngineInvariantError):
    """The assembled Nakayama automorphism of the Ore extension does
    not preserve R-hat."""


class FormMismatchError(EngineInvariantError):
    """The two closed forms of the twisted superpotential's tower part
    disagree (``SequencePair.verify``, the paranoid level); ``degree``
    is the degree d + 1 of omega-hat."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class NotInHatWError(EngineInvariantError):
    """The twisted superpotential is not in the top Koszul space of the
    Ore extension: it escapes V-hat^s (x) R-hat (x) V-hat^(d-1-s) at the
    slot ``slot`` = s.  Only s = d - 1 is read; the twist condition
    carries it to the other slots (``ore.twisted_superpotential_hat``)."""

    def __init__(self, message, slot=None):
        super().__init__(message)
        self.slot = slot


class TwistFailureError(EngineInvariantError):
    """The twisted superpotential fails its twist condition; the
    message names the words, by the position of z, where it fails, and
    ``degree`` is the degree d + 1 of omega-hat."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree
