"""The package's errors: one class per exit code, plus the one a caller
catches by type.

`MatchlabError` is a bad or inconsistent input, or a random generator
that gave up within its restart cap; the CLI reports it with exit code 1.
`ResourceLimitError` is an instance above one of the exact-computation
caps, and its message names the cap; the CLI reports it with exit code 2.
`NoPerfectMatchingError` is the input error a caller may want to tell
apart: the host has no perfect matching to count with, draw or condition
on.  The message of each raise says which check fired.  Any other
exception out of the package is a bug, not an input error.
"""


class MatchlabError(Exception):
    """Bad or inconsistent input; base class for all package errors."""


class NoPerfectMatchingError(MatchlabError):
    """The host has no perfect matching where one is required."""


class ResourceLimitError(MatchlabError):
    """Instance exceeds a configured exact-computation cap."""
