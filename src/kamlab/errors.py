"""Exception taxonomy shared by all kamlab modules.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps the class name into the machine-readable error record.
"""


class KamlabError(Exception):
    """Base class for all kamlab errors."""

    def as_record(self) -> dict:
        """Kind and message.  Reads nothing but the class name and str(), so
        KamlabError.as_record(exc) also records a foreign exception."""
        return {"kind": type(self).__name__, "message": str(self)}


# -- frequency arithmetic -----------------------------------------------------

class ResonanceDetected(KamlabError):
    """A lattice vector produced a divisor below the resonance tolerance."""


class BelowThreshold(KamlabError):
    """delta(x) requested with x < 1*Psi(1); no admissible truncation order."""


class ConstructionFailed(KamlabError):
    """A test-frequency construction could not meet its schedule."""


# -- series / Hamiltonian calculus --------------------------------------------

class KolmogorovDegenerate(KamlabError):
    """Averaged quadratic form is singular or numerically ill-conditioned."""


class StateMismatch(KamlabError):
    """A rescaling was applied to a Hamiltonian in the wrong scaling state."""


class NonConvergentStep(KamlabError):
    """Implicit integrator step failed to reach fixed-point tolerance."""


# -- normal form ---------------------------------------------------------------

class MuTooLarge(KamlabError):
    """Arithmetic gate mu(eps) above the configured threshold."""


class TailNotConverged(KamlabError):
    """Lie series tail still above tolerance at the maximum expansion order."""


# -- torus solver ---------------------------------------------------------------

class NonConvergence(KamlabError):
    """Newton defect stagnated above tolerance; the torus is counted lost."""


class SmallDivisorBreakdown(KamlabError):
    """A divisor fell below half the certified (gamma, tau) floor."""


class OutsideImage(KamlabError):
    """Pulled-back torus leaves the safe margin of the action domain."""


# -- measure scan ----------------------------------------------------------------

class GateFailed(KamlabError):
    """A scan point violates the smallness gates (mu or sqrt(mu) too large)."""


class InsufficientSpan(KamlabError):
    """Scaling fit requested on too few reports or too little mu span."""
