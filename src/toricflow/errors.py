"""Exception taxonomy shared across the toolkit.

The CLI maps these onto process exit codes: malformed scenes exit 2,
failed mathematical hypotheses exit 3, tripped resource limits exit 4.
"""


class ToricError(Exception):
    """Base class for every toolkit error."""


class SceneError(ToricError):
    """Scene document is malformed or internally inconsistent."""


class HypothesisError(ToricError):
    """Input violates a hypothesis the requested operation needs."""


class NotPointed(HypothesisError):
    """The cone contains a line."""


class NotFullDimensional(HypothesisError):
    """The cone's rays do not span the ambient space."""


class NotNonnegative(HypothesisError):
    """A functional takes a negative value on a ray it must be nonnegative on."""


class NotEffective(HypothesisError):
    """Monoid generators do not generate the full character lattice."""


class NormalityRequired(HypothesisError):
    """Operation needs a saturated monoid.  Carries a missing lattice point."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("monoid is not saturated, witness %s" % (witness,))


class NotParabolic(HypothesisError):
    """Operation needs a parabolic grading.  Carries the actual kind."""

    def __init__(self, kind, detail=""):
        self.kind = kind
        label = getattr(kind, "value", str(kind))
        message = "grading is %s, need Parabolic" % label
        if detail:
            message += ": " + detail
        super().__init__(message)

    @property
    def verdict(self):
        label = getattr(self.kind, "value", str(self.kind))
        return "NotParabolic(%s)" % label


class IllDefinedRoot(HypothesisError):
    """A shifted exponent leaves the monoid, so the derivation is not defined."""


class NotADemazureRoot(HypothesisError):
    """A supplied vector fails the root condition against the cone's rays."""


class ResourceError(ToricError):
    """A documented size or rank limit was exceeded."""


class RankLimitExceeded(ResourceError):
    pass


class BoundExceeded(ResourceError):
    pass
