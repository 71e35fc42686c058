"""Prior-work comparators: simulated and analytic baselines."""

from .analytic import (
    bgi_bound,
    broadcast_lower_bound,
    czumaj_davies_bound,
    czumaj_rytter_bound,
    ghaffari_haeupler_le_bound,
    mis_lower_bound,
    mis_paper_bound,
    paper_bound,
    spontaneous_lower_bound,
)
from .bgi_broadcast import (
    BGIBroadcastResult,
    bgi_broadcast,
    bgi_broadcast_reference,
)
from .cd_broadcast import CDBroadcastResult, cd_broadcast
from .leader_binary_search import (
    BinarySearchElectionResult,
    binary_search_election,
    binary_search_election_reference,
)
from .leader_uptime import (
    UptimeElectionResult,
    uptime_threshold_election,
    uptime_threshold_election_reference,
)
from .luby_local import LubyResult, luby_mis
from .round_robin import RoundRobinResult, round_robin_broadcast

__all__ = [
    "RoundRobinResult",
    "round_robin_broadcast",
    "BGIBroadcastResult",
    "BinarySearchElectionResult",
    "CDBroadcastResult",
    "cd_broadcast",
    "LubyResult",
    "UptimeElectionResult",
    "bgi_bound",
    "bgi_broadcast",
    "bgi_broadcast_reference",
    "binary_search_election",
    "binary_search_election_reference",
    "broadcast_lower_bound",
    "czumaj_davies_bound",
    "czumaj_rytter_bound",
    "ghaffari_haeupler_le_bound",
    "luby_mis",
    "mis_lower_bound",
    "mis_paper_bound",
    "paper_bound",
    "spontaneous_lower_bound",
    "uptime_threshold_election",
    "uptime_threshold_election_reference",
]
