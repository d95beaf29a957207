"""The known-answer table, written by hand from the paper.

No entry comes from a run of the verifier.  Sources:

* PROP2 (Proposition 2): P2 securely implements the abstract P, so it
  keeps M secret and authenticates A; with one session, no datum can
  be accepted twice.
* ATT1 (Section 5.1): the plaintext P1 sends M in clear and accepts any
  datum on ``c``: it fails the Definition-4 check, secrecy and
  authentication.  It has one responder activation, so freshness holds.
* ATT2 (Section 5.2): in the replicated Pm2 a replayed ``{M}KAB`` is
  accepted twice: freshness fails.  Every accepted datum was still
  created by an instance of A under the shared key, so authentication
  and secrecy hold.
* PROP4 (Proposition 4): the challenge-response Pm3 holds every
  property; the system is infinite, so only within the budget.
* The single-session zoo protocols hold every property exactly (the
  classic shared-key protocols against one eavesdropper, impersonator
  or replayer, as in the zoo experiment).

Explorations check only how they ended: a budget-bound exploration
stops on ``states`` at exactly its state budget, a horizon exploration
on ``depth`` alone.  No other state count is checked, because reduction
may change it legitimately.
"""

from __future__ import annotations

from typing import Mapping, Optional

from verifybench.inputs import Entry

#: (kind, system file) -> does the property hold?  ``check`` means
#: "securely implements the abstract P" (Definition 4).
SYSTEM_FILES: dict[tuple[str, str], bool] = {
    ("check", "p1"): False,  # ATT1
    ("secrecy", "p1"): False,  # ATT1
    ("authentication", "p1"): False,  # ATT1
    ("freshness", "p1"): True,
    ("check", "p2"): True,  # PROP2
    ("secrecy", "p2"): True,  # PROP2
    ("authentication", "p2"): True,  # PROP2
    ("freshness", "p2"): True,
    ("secrecy", "pm2"): True,
    ("authentication", "pm2"): True,
    ("freshness", "pm2"): False,  # ATT2
    ("secrecy", "pm3"): True,  # PROP4
    ("authentication", "pm3"): True,  # PROP4
    ("freshness", "pm3"): True,  # PROP4
}


def expected_holds(entry: Entry) -> bool:
    """The paper's verdict for one catalogue entry."""
    if entry.is_zoo:
        return True
    return SYSTEM_FILES[(entry.kind, entry.system)]


def check_reply(entry: Entry, reply: Mapping) -> Optional[str]:
    """Why a service reply is wrong, or ``None`` when it matches the table.

    A reply is wrong when its status is not ``ok``, its verdict differs
    from the table, a violation comes back without ``certified: true``,
    or a zoo verdict is not exact.
    """
    status = reply.get("status")
    if status != "ok":
        return f"status {status!r}: {reply.get('error')}"
    return check_result(entry, reply.get("result") or {})


def check_result(entry: Entry, result: Mapping) -> Optional[str]:
    """Why a job result is wrong, or ``None`` (see :func:`check_reply`)."""
    holds = result.get("secure") if entry.kind == "check" else result.get("holds")
    expected = expected_holds(entry)
    if holds is not expected:
        return f"{entry.label}: verdict {holds!r}, the paper says {expected!r}"
    if result.get("violated") and result.get("certified") is not True:
        return f"{entry.label}: violation without certified: true"
    if entry.is_zoo and result.get("exact") is not True:
        return f"{entry.label}: the single-session zoo must hold exactly"
    return None


def check_exploration(graph, reason: str, states: Optional[int]) -> Optional[str]:
    """Why an exploration ended wrongly, or ``None``.

    ``reason`` is the only exhaustion reason allowed; ``states``, when
    given, is the exact state count required.
    """
    reasons = tuple(graph.exhaustion.reasons) if graph.exhaustion else ()
    if reasons != (reason,):
        return f"ended on {reasons!r}, expected ({reason!r},)"
    if states is not None and graph.state_count() != states:
        return f"{graph.state_count()} states, expected exactly {states}"
    return None
