"""The behavioural-implementation judgment: global labels, consumed in
order, matched to the endpoint labels of their ``required_group``s, taken
as a multiset.  Co-simulation checks the same groups state by state."""

from __future__ import annotations

from typing import Iterable, Optional

from gcq.correspond import _start_key_agnostic, required_group
from gcq.netsem import ELabel
from gcq.syntax import GLabel, term


@term
class Witness:
    """Which endpoint positions realize which global label."""

    groups: tuple[tuple[GLabel, tuple[int, ...]], ...]


@term
class Correspondence:
    ok: bool
    witness: Optional[Witness] = None


def implements(globals_: Iterable[GLabel], endpoints: Iterable[ELabel]) -> Correspondence:
    """Decide whether the endpoint labels realize the global labels."""
    glabels = list(globals_)
    elabels = list(endpoints)
    positions: dict = {}
    for i, lab in enumerate(elabels):
        positions.setdefault(_start_key_agnostic(lab), []).append(i)
    groups = []
    for g in glabels:
        group = required_group(g)
        if group is None:
            return Correspondence(False)
        picked = []
        for lab in group:
            pool = positions.get(_start_key_agnostic(lab), [])
            if not pool:
                return Correspondence(False)
            picked.append(pool.pop(0))
        groups.append((g, tuple(sorted(picked))))
    if any(pool for pool in positions.values()):
        return Correspondence(False)  # leftover endpoint labels realize nothing
    return Correspondence(True, Witness(tuple(groups)))
