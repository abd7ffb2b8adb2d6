"""Continuous fleet scheduling: who advances together, and when.

``track_paths`` drives a fleet of paths whose per-step work is batched
into same-precision GPU launches.  *Which* paths share a launch is a
scheduling decision, and this module owns it.  Two policies:

``lockstep``
    The historical behavior.  The fleet advances in *rounds*: at a
    round barrier every active path is grouped by precision rung, and
    each rung group advances once before the next barrier.  A path that
    retires mid-round leaves a hole — the remaining groups of that
    round still reflect the stale barrier snapshot.

``continuous`` (default)
    No barrier.  After every sub-batch the scheduler re-packs the
    survivors: all active paths at the lowest occupied rung form the
    next sub-batch, so retirement immediately shrinks the launch and
    freshly escalated paths immediately join their new rung mates.
    Every sub-batch is maximal for its rung at the moment it launches,
    which keeps batch occupancy high on heterogeneous fleets.

Because batched kernels are bit-identical per slice to their unbatched
counterparts, and each path's step-control state is self-contained,
*the packing policy never changes per-path results* — it only changes
how the work is cut into launches.  The fleet tests pin this: both
policies reproduce the unbatched reference tracker bitwise.

The scheduler is deliberately dumb about path internals: it sees only
``active`` and ``rung`` on the state objects it is handed, so it can
schedule anything with those two attributes.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["POLICIES", "FleetScheduler"]

#: Recognized packing policies, in documentation order.
POLICIES = ("lockstep", "continuous")


class FleetScheduler:
    """Yield sub-batches of active path states until the fleet drains.

    Parameters
    ----------
    states:
        The fleet's per-path state objects.  Only ``active`` (bool) and
        ``rung`` (int, index into the precision ladder) are inspected,
        and both are re-read on every call — the scheduler always sees
        the caller's latest mutations.
    policy:
        ``"continuous"`` (default) or ``"lockstep"``; see the module
        docstring for semantics.
    """

    def __init__(self, states: Sequence, policy: str = "continuous"):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown packing policy {policy!r}; expected one of {POLICIES}"
            )
        self.policy = policy
        self._states = list(states)
        # lockstep bookkeeping: groups snapshotted at the round barrier
        self._pending: list[list] = []
        self._fresh_round = False

    def next_sub_batch(self) -> Optional[tuple[list, bool]]:
        """Pick the next sub-batch to advance.

        Returns ``(batch_states, new_round)`` — the states to advance
        together and whether this sub-batch opens a new round — or
        ``None`` once no active paths remain.  Under ``continuous``
        every sub-batch is its own round; under ``lockstep`` a round
        spans one barrier snapshot's worth of rung groups.
        """
        if self.policy == "continuous":
            active = [state for state in self._states if state.active]
            if not active:
                return None
            rung = min(state.rung for state in active)
            return [state for state in active if state.rung == rung], True

        # lockstep: refill from a barrier snapshot when the round drains
        if not self._pending:
            active = [state for state in self._states if state.active]
            if not active:
                return None
            groups: dict[int, list] = {}
            for state in active:
                groups.setdefault(state.rung, []).append(state)
            self._pending = [groups[rung] for rung in sorted(groups)]
            self._fresh_round = True
        batch_states = self._pending.pop(0)
        new_round, self._fresh_round = self._fresh_round, False
        return batch_states, new_round
