"""Package-wide exception types."""

from __future__ import annotations


class SelfCheckError(RuntimeError):
    """An invariant guaranteed by the underlying theory failed at runtime.

    Raised when computed results contradict a statement they provably must
    satisfy (strict monotonicity of the weight hierarchy, the Singleton-type
    window, or the duality partition).  Seeing this exception on valid input
    means the implementation, not the input, is wrong.

    reproducer, when set, is the failing instance as the code text format
    followed by the poset text format, so it replays from two files.
    """

    reproducer: str | None = None
