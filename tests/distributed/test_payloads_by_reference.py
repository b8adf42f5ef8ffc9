"""Payloads by reference: a simulated run builds no codes for its messages.

Every work report, snapshot and delta a tracker builds carries a
:class:`~repro.core.codeset.CodeSet` holding one node of the run's
:class:`~repro.core.arena.TrieArena`, and every receiver merges it by node
id.  So a seeded run — the golden ``failure-free`` scenario — must never
materialise a payload's codes (``TrieArena.codes_at``, which builds a
frozenset of ``PathCode``) and never build a node from foreign codes
(``TrieArena.node_from_codes``, the path of frames decoded off the wire).
A frozenset sneaking back into an in-process payload fails here by name.
"""

from test_golden_runs import SCENARIOS

from repro.core.arena import TrieArena
from repro.core.codeset import CodeSet
from repro.distributed.messages import DeltaGossipMsg, MessageKinds, WorkReportMsg
from repro.scenario import run_scenario


def test_failure_free_run_never_builds_payload_codes(monkeypatch):
    calls = []
    payloads = []
    for name in ("codes_at", "node_from_codes"):
        original = getattr(TrieArena, name)

        def recording(arena, arg, _name=name, _original=original):
            calls.append(_name)
            return _original(arena, arg)

        monkeypatch.setattr(TrieArena, name, recording)
    classify = MessageKinds.of

    def capture(payload):
        payloads.append(payload)
        return classify(payload)

    monkeypatch.setattr(MessageKinds, "of", staticmethod(capture))

    result = run_scenario(SCENARIOS["failure-free"], backend="simulated")

    assert result.terminated and result.solved_correctly
    assert calls == []
    carried = [
        payload.report if isinstance(payload, WorkReportMsg) else payload.delta
        for payload in payloads
        if isinstance(payload, (WorkReportMsg, DeltaGossipMsg))
    ]
    kinds = {type(payload).__name__ for payload in carried}
    assert kinds == {"WorkReport", "DeltaSnapshot"}
    assert all(isinstance(payload.codes, CodeSet) for payload in carried)
