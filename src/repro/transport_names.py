"""The names of the real-execution transports, importable without them.

One list of names, with no dependencies: ``Scenario`` validates its
``transport`` field against it on every construction and the CLI offers it
as choices, neither of which may load :mod:`repro.realexec` (its driver,
sockets, selectors and ``multiprocessing``).  The realexec registry
:data:`repro.realexec.transport.TRANSPORTS` maps these names, in this order,
to router classes, so adding a transport means adding its name here and its
router there.
"""

from __future__ import annotations

__all__ = ["TRANSPORT_NAMES", "validate_transport"]

#: Every selectable transport, by the name ``LocalCluster``/``Scenario`` take.
TRANSPORT_NAMES = ("pipe", "uds", "tcp")


def validate_transport(transport: str) -> str:
    """Check a transport name against :data:`TRANSPORT_NAMES`; returns it unchanged."""
    if transport not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown transport {transport!r} (known: {', '.join(sorted(TRANSPORT_NAMES))})"
        )
    return transport
