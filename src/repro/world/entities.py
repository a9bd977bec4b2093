"""Identity types: people and their electronic / visual identities.

A *person* (the paper's "human object") links exactly one EID — the MAC
address of the device they carry — with one VID — their visual
appearance.  The matching algorithms never see this link; it exists only
as ground truth for the accuracy metric (Sec. VI-B: "matching accuracy
is defined as the percentage of the correctly matched EIDs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: EID indices fill the 40 bits of a MAC address after its fixed ``02``
#: first octet.
MAC_SPACE = 2**40


@dataclass(frozen=True, order=True)
class EID:
    """An electronic identity: a WiFi MAC address.

    The paper assigns WiFi MAC addresses to human objects as their
    captured EIDs (Sec. VI-A).  Internally we key on a dense integer
    ``index`` (cheap to hash and shuffle through the MapReduce layer)
    and render the MAC string on demand.
    """

    index: int

    def __hash__(self) -> int:
        # Hash the bare index: equal EIDs have equal indices, and this
        # skips the generated hash's per-call field-tuple allocation —
        # EIDs are dict/set keys throughout the matching hot paths.
        return hash(self.index)

    @property
    def mac(self) -> str:
        """The identity rendered as a locally-administered MAC address."""
        if not 0 <= self.index < MAC_SPACE:
            raise ValueError(f"EID index {self.index} out of MAC range")
        raw = self.index
        octets = [(raw >> shift) & 0xFF for shift in (32, 24, 16, 8, 0)]
        return ":".join(["02"] + [f"{o:02x}" for o in octets])

    def __str__(self) -> str:
        return f"EID#{self.index}"


@dataclass(frozen=True, order=True)
class VID:
    """A visual identity: a person's appearance as seen by cameras.

    In the paper VIDs are CUHK02 person images; here the appearance is
    a latent feature vector held by :class:`repro.world.features.AppearanceModel`
    and looked up by this index.
    """

    index: int

    def __str__(self) -> str:
        return f"VID#{self.index}"


@dataclass(frozen=True)
class Person:
    """Ground-truth link between one EID and one VID.

    Attributes:
        person_id: dense id, equal to the indices of the linked
            identities by construction in :class:`~repro.world.population.Population`.
        eid: the electronic identity, or ``None`` for a person who
            carries no device (the paper's "missing EID" practical
            setting, Sec. IV-C.1).
        vid: the visual identity.  Always present — a person is always
            visible in principle; per-observation visual misses are
            modelled by the V-sensing layer instead.
        extra_eids: additional devices the person carries (a second
            phone, a tablet).  The paper's model assumes one device per
            person ("if the person uses only one phone in this period
            of time"); populating this field violates that assumption
            on purpose, so its cost can be measured.
    """

    person_id: int
    eid: Optional[EID]
    vid: VID
    extra_eids: "Tuple[EID, ...]" = ()

    @property
    def has_device(self) -> bool:
        """Whether the person carries an electronic device."""
        return self.eid is not None

    @property
    def all_eids(self) -> "Tuple[EID, ...]":
        """Every EID the person emits (primary first)."""
        if self.eid is None:
            return tuple(self.extra_eids)
        return (self.eid,) + tuple(self.extra_eids)

    def __str__(self) -> str:
        eid = str(self.eid) if self.eid is not None else "no-EID"
        return f"Person#{self.person_id}({eid}, {self.vid})"
