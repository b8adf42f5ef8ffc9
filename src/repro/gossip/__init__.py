"""Epidemic failure detection: the membership half of the paper's Section 5.2.

The paper keeps membership apart from the fault-tolerance mechanism and
spreads it by epidemic gossip.  Here every worker starts from the full roster
and runs a :class:`GossipFailureDetector` (the heartbeat-counter detector of
van Renesse et al., :mod:`repro.gossip.failure_detector`) that evicts silent
peers and readmits returning ones; a readmitted or restarted peer catches up
through the first-contact table delta (one bounded full-basis delta, see
:class:`~repro.distributed.worker.WorkerEntity`).
"""

from .failure_detector import GossipFailureDetector, HeartbeatEntry

__all__ = [
    "GossipFailureDetector",
    "HeartbeatEntry",
]
