"""Exception hierarchy shared by all weylkit modules.

Mathematical failures carry a witness (the offending arrow/pair/triple) so
reports can point at concrete counterexamples instead of just saying "no".
"""


class WeylkitError(Exception):
    """Base class for all weylkit errors."""


class SchemaError(WeylkitError):
    """Malformed input file or description (exit code 2 territory)."""


class GroupoidError(WeylkitError):
    """Base for groupoid axiom violations."""


class MissingComposite(GroupoidError):
    def __init__(self, g, h):
        super().__init__(f"composable pair ({g}, {h}) has no compose entry")
        self.pair = (g, h)


class AssociativityViolation(GroupoidError):
    def __init__(self, g, h, k):
        super().__init__(f"(({g}){h}){k} != ({g})(({h}){k})")
        self.triple = (g, h, k)


class BadInverse(GroupoidError):
    def __init__(self, g, reason=""):
        super().__init__(f"no valid inverse for arrow {g}" + (f": {reason}" if reason else ""))
        self.arrow = g


class DanglingUnit(GroupoidError):
    def __init__(self, u, reason=""):
        super().__init__(f"bad unit {u}" + (f": {reason}" if reason else ""))
        self.unit = u


class UnknownArrowId(WeylkitError):
    def __init__(self, g):
        super().__init__(f"unknown arrow id {g!r}")
        self.arrow = g


class NotHomomorphism(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"grading is not a homomorphism; witness pair {witness}")
        self.witness = witness


class NotNormal(WeylkitError):
    pass


class NotBundle(WeylkitError):
    pass


class NotAbelian(WeylkitError):
    pass


class FibreTooLarge(WeylkitError):
    pass


class DualityFailure(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"Pontryagin duality check fails; witness {witness}")
        self.witness = witness


class UndefinedPair(WeylkitError):
    def __init__(self, g, h):
        super().__init__(f"cocycle undefined on ({g}, {h}): not a composable pair")
        self.pair = (g, h)


class SearchCapExceeded(WeylkitError):
    pass


class RepresentativeDisagreement(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"action value depends on class representative: {witness}")
        self.witness = witness


class NotAnAction(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"groupoid action axiom fails; witness {witness}")
        self.witness = witness


class CardinalityMismatch(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"cardinality check fails; witness {witness}")
        self.witness = witness


class ElementNotInS(WeylkitError):
    def __init__(self, g):
        super().__init__(f"section defect {g} does not lie in the marked bundle")
        self.arrow = g


class NotAutomorphism(WeylkitError):
    pass


class CocycleInvalid(WeylkitError):
    def __init__(self, violations):
        super().__init__(f"cocycle condition fails; first witness {violations[0]}")
        self.violations = violations


class RestrictionNotTrivial(WeylkitError):
    pass


class MomentMapMismatch(WeylkitError):
    pass


class AssumptionUnverified(WeylkitError):
    pass


class DescentFailure(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"diamond action does not descend; witness {witness}")
        self.witness = witness


class ThetaInvalid(WeylkitError):
    pass


class NontrivialCocycle(WeylkitError):
    """Reconstruction pipeline requires a trivial 2-cocycle."""


class IsoCheckFailed(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"reconstruction map fails to be an isomorphism: {witness}")
        self.witness = witness


class NotStarHomomorphism(WeylkitError):
    def __init__(self, witness):
        super().__init__(f"representation is not a *-homomorphism; witness {witness}")
        self.witness = witness


class ConventionMismatch(WeylkitError):
    """Expectation positivity fails systematically; pairing convention suspect."""


class DegenerateSample(WeylkitError):
    """Random central element failed to separate the blocks after retries."""
