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
    """The machine-wide watchdog saw no forward progress.

    Raised by :class:`repro.core.machine.Machine` when no instruction
    commits on any node within the watchdog window.  The message
    includes a dump of per-node pipeline and memory-controller state.
    """


class LivelockError(DeadlockError):
    """Transactions keep retrying but none complete.

    Raised by the online sanitizer (:mod:`repro.fuzz.sanitizer`) when a
    miss stays outstanding past its age limit even though handlers are
    still firing — the NACK-retry-storm shape of no-forward-progress,
    which the commit watchdog alone cannot see.
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
