"""Typed errors raised across the package.

Two families: domain errors (bad or inconsistent inputs, and a random
generator that gave up) and resource limits (instances too large for the
configured exact-computation caps).  The CLI maps the former to exit
code 1 and the latter to exit code 2.
"""


class MatchlabError(Exception):
    """Base class for all package errors."""


# -- domain / input errors ------------------------------------------------

class SelfLoopError(MatchlabError):
    pass


class VertexOutOfRangeError(MatchlabError):
    pass


class EdgeNotPresentError(MatchlabError):
    pass


class InfeasibleDegreeSequenceError(MatchlabError):
    pass


class NotAMatchingError(MatchlabError):
    """Edge set with a repeated vertex where a matching is required."""


class NotASubMatchingError(MatchlabError):
    """Forced edge set is not a matching contained in the host graph."""


class NoPerfectMatchingError(MatchlabError):
    pass


class NotAPerfectMatchingError(MatchlabError):
    pass


class EmptyStratumError(MatchlabError):
    """Ratio requested against a stratum with zero perfect matchings."""


class NotRegularError(MatchlabError):
    pass


class SinkVertexError(MatchlabError):
    """Digraph has a vertex with out-degree zero; no random-walk step."""


class ZeroEntryError(MatchlabError):
    """Transition matrix or distribution entry is zero where positivity is required."""


class UnbalancedBipartitionError(MatchlabError):
    pass


class NotBipartiteError(MatchlabError):
    pass


class GenerationTimeoutError(MatchlabError):
    """Rejection sampling did not produce a graph within the restart cap.

    A failed random draw, not an exact-computation cap: the CLI reports
    it as an input error with the generator's own message.
    """


# -- resource limits ------------------------------------------------------

class ResourceLimitError(MatchlabError):
    """Instance exceeds a configured exact-computation cap."""


class TooLargeError(ResourceLimitError):
    pass


class TooLargeForExactSweepError(ResourceLimitError):
    pass


class TooManyMatchingsError(ResourceLimitError):
    pass


class BudgetExceededError(ResourceLimitError):
    pass


class ExactInfeasibleError(ResourceLimitError):
    pass
