"""Exception types raised by the simulator.

Every error carries enough context to diagnose the failing component
without a debugger: the simulators attach cycle counts and node ids to
the message at the raise site.
"""

from typing import Optional


class SimulationError(Exception):
    """Base class for all simulator-raised errors."""


class ConfigError(SimulationError):
    """A configuration object is internally inconsistent."""


class DeadlockError(SimulationError):
    """The machine watchdog saw no forward progress.

    Raised by :class:`repro.core.machine.Machine` when an MSHR entry
    stays outstanding for more than ``watchdog_cycles``, or when for
    that long no core commits and no MSHR entry frees.  The message
    names each stuck line (age, retries, pending acks, home directory
    entry) and dumps every node's queues, engine and core.
    """


class ProtocolError(SimulationError):
    """The coherence protocol reached an impossible state.

    Examples: a handler observed a directory state it has no case for,
    two exclusive owners of the same line, or a reply arriving with no
    matching MSHR.
    """


class CoherenceViolation(ProtocolError):
    """The coherence sanitizer detected incoherent data or metadata.

    ``code`` names the failed invariant (``repro.protocol.invariants``
    ``CODES``), or is None for a check outside that module.
    """

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code
