"""The protocol registry: coherence protocols as registered bundles.

A protocol is data, not code structure: a :class:`ProtocolBundle`
carries everything the machine, the verifier stack, and the fuzzer
need to run one protocol —

* a handler-table factory (the protocol-ISA programs, with the
  active-memory extension handlers appended, compiled on demand by
  :mod:`repro.protocol.compile` like any other table),
* the four dispatch tables (network, local-home, local-remote, probe),
  owned by the bundle rather than mutated module globals,
* metadata: the stable directory states and the human description.

Machines resolve the bundle from :attr:`MachineParams.protocol`;
``repro analyze``, ``repro fuzz`` and ``repro sweep`` take a
``--protocol`` flag.  The protocol name folds into the sweep cache
key automatically (it is a ``MachineParams`` field) and into fuzz
artifacts, so cached results and replays can never cross protocols.

Three bundles ship (see docs/protocols.md for the contract and the
verification checklist a new bundle must pass):

``smtp-bitvector``
    the default — the paper's SGI-Origin-derived bitvector protocol
    with eager-exclusive replies, bit-identical to the pre-registry
    behavior.
``msi``
    the 3-state MSI baseline (no eager-exclusive replies);
    :mod:`repro.protocol.msi`.
``migratory``
    the migratory-sharing optimization (read misses to exclusive
    lines transfer ownership); :mod:`repro.protocol.migratory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.common.errors import ConfigError
from repro.network.messages import MsgType
from repro.protocol import extensions, migratory, msi
from repro.protocol.handlers import (
    LOCAL_HOME_DISPATCH,
    LOCAL_REMOTE_DISPATCH,
    NETWORK_DISPATCH,
    PROBE_DISPATCH,
    build_handler_table,
)
from repro.protocol.isa import HandlerTable

#: The paper's protocol; `MachineParams.protocol` defaults to it.
DEFAULT_PROTOCOL = "smtp-bitvector"


@dataclass(frozen=True)
class ProtocolBundle:
    """One registered coherence protocol.

    Frozen and built from module-level callables/constants only, so a
    bundle pickles by reference and a worker-process payload may carry
    one (sweep and fuzz payloads carry protocol names today).
    """

    name: str
    description: str
    #: Zero-arg factory assembling the coherence handler table; the
    #: registry appends the active-memory extension handlers so every
    #: bundle serves AM_OP/AM_REPLY identically.
    table_factory: Callable[[], HandlerTable]
    #: Incoming network message type -> home/probed handler.
    network_dispatch: Mapping[MsgType, str] = field(repr=False)
    #: Local miss, home is this node.
    local_home_dispatch: Mapping[MsgType, str] = field(repr=False)
    #: Local miss, home is remote.
    local_remote_dispatch: Mapping[MsgType, str] = field(repr=False)
    #: Probe replies, keyed by the original intervention type.
    probe_dispatch: Mapping[MsgType, str] = field(repr=False)
    #: Stable directory-state labels (metadata for docs/reports).
    stable_states: Tuple[str, ...] = ()
    #: Do read misses to unowned lines receive writable copies?
    eager_exclusive: bool = True

    def build_table(self) -> HandlerTable:
        """Assemble the full handler table for this protocol."""
        table = self.table_factory()
        extensions.install(table)
        return table


_REGISTRY: Dict[str, ProtocolBundle] = {}


def register(bundle: ProtocolBundle) -> ProtocolBundle:
    """Register a bundle; names are unique for the process lifetime."""
    if bundle.name in _REGISTRY:
        raise ConfigError(f"protocol {bundle.name!r} is already registered")
    _REGISTRY[bundle.name] = bundle
    return bundle


def get(name: str) -> ProtocolBundle:
    """Resolve a registered protocol by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(names())}"
        ) from None


def names() -> Tuple[str, ...]:
    """All registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


def _network_dispatch() -> Mapping[MsgType, str]:
    """The shared network dispatch with the extension rows baked in
    (bundles own their tables; nothing mutates globals at run time)."""
    table = dict(NETWORK_DISPATCH)
    table[MsgType.AM_OP] = "h_am_op"
    table[MsgType.AM_REPLY] = "h_am_reply"
    return table


def _shared_dispatch() -> Dict[str, Mapping[MsgType, str]]:
    """All three shipped protocols dispatch identically: they differ
    only in handler *programs*, never in which handler serves a
    message — that is what keeps a variant a pure table substitution."""
    return {
        "network_dispatch": _network_dispatch(),
        "local_home_dispatch": dict(LOCAL_HOME_DISPATCH),
        "local_remote_dispatch": dict(LOCAL_REMOTE_DISPATCH),
        "probe_dispatch": dict(PROBE_DISPATCH),
    }


register(
    ProtocolBundle(
        name=DEFAULT_PROTOCOL,
        description=(
            "SGI-Origin-derived bitvector directory protocol with "
            "eager-exclusive replies (the paper's protocol, §3)"
        ),
        table_factory=build_handler_table,
        stable_states=("UNOWNED", "SHARED", "EXCLUSIVE"),
        eager_exclusive=True,
        **_shared_dispatch(),
    )
)

register(
    ProtocolBundle(
        name="msi",
        description=(
            "3-state MSI baseline: read misses always receive SHARED "
            "copies (no eager-exclusive replies)"
        ),
        table_factory=msi.build_msi_table,
        stable_states=("I (UNOWNED)", "S (SHARED)", "M (EXCLUSIVE)"),
        eager_exclusive=False,
        **_shared_dispatch(),
    )
)

register(
    ProtocolBundle(
        name="migratory",
        description=(
            "bitvector protocol + migratory sharing: a read miss to an "
            "exclusively held line transfers the exclusive copy"
        ),
        table_factory=migratory.build_migratory_table,
        stable_states=("UNOWNED", "SHARED", "EXCLUSIVE"),
        eager_exclusive=True,
        **_shared_dispatch(),
    )
)
