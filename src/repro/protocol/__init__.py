"""The directory-based coherence protocol: ISA, handlers, semantics,
directory layout, and the coherence invariants."""

from repro.protocol import extensions, registry
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import build_handler_table
from repro.protocol.isa import Handler, HandlerBuilder, HandlerTable, PInstr, POp
from repro.protocol.registry import DEFAULT_PROTOCOL, ProtocolBundle

__all__ = [
    "DEFAULT_PROTOCOL",
    "DirectoryLayout",
    "Handler",
    "HandlerBuilder",
    "HandlerTable",
    "PInstr",
    "POp",
    "ProtocolBundle",
    "build_handler_table",
    "extensions",
    "registry",
]
