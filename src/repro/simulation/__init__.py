"""Simulation substrates: Monte Carlo validation and packet-level dynamics."""

from repro.simulation.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignSimulation,
    run_campaign,
)
from repro.simulation.engine import EventScheduler
from repro.simulation.monte_carlo import (
    MonteCarloConfig,
    MonteCarloEstimator,
    estimate_ps,
)
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    PacketSimReport,
    flood_layer,
)
from repro.simulation.results import PsEstimate, summarize_indicators

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignSimulation",
    "run_campaign",
    "EventScheduler",
    "MonteCarloConfig",
    "MonteCarloEstimator",
    "estimate_ps",
    "PacketLevelSimulation",
    "PacketSimConfig",
    "PacketSimReport",
    "flood_layer",
    "PsEstimate",
    "summarize_indicators",
]
