"""Delivery records of the round-based network simulator.

The network itself is
:class:`~repro.system.netfaults.PartiallySynchronousNetwork`: messages are
handed over with ``submit`` and released with ``collect``. Under the null
fault model every message submitted in a round is collected in that round,
which is the paper's synchrony assumption — a missing reply is *proof* the
sender is faulty (the server exploits this to eliminate silent agents).
The network logs every delivery as a :class:`DeliveryRecord` for post-hoc
inspection and accounts traffic volume.
"""

from __future__ import annotations

from typing import NamedTuple


class DeliveryRecord(NamedTuple):
    """One delivered (or dropped) message, as seen by the network.

    A named tuple: the network builds one per message, so its construction
    cost is part of every round's cost.
    """

    round_index: int
    sender: int
    receiver: int
    message_type: str
    size_bytes: int
    dropped: bool
