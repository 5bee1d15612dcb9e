"""Take a ROTE quorum away from its client without wiping any replica.

A crashed replica loses its counters, and a group that lost more than f
of them never confirms a restarter again (DESIGN §4f). Tests that need a
quorum outage which later heals cut replicas off the network instead.
"""

OUTAGE = "quorum-outage"


def cut_off(cluster, nodes) -> None:
    """Partition replicas ``nodes`` away from ``cluster``'s client."""
    cluster.network.partition(
        OUTAGE,
        [[cluster.nodes[i].address for i in nodes], [cluster.client_address]],
    )


def reconnect(cluster) -> None:
    """Heal the partition :func:`cut_off` made."""
    cluster.network.heal(OUTAGE)
