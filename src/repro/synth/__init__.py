"""Parametric venue & crowd synthesis plus a production-rate replayer.

Everything before this subsystem was calibrated against one venue (the
Louvre) and one ~20k-record corpus.  ``repro.synth`` generalises the
workload side of the system:

* :mod:`repro.synth.venues` — a seeded parametric grammar over the
  existing :mod:`repro.indoor` multilayer model that emits arbitrary
  multi-floor venues (museum, airport, stadium, hospital archetypes)
  with rooms, corridors, vertical connectors and beacon layouts, all
  passing the SITM validation rules and fully route-plannable;
* :mod:`repro.synth.crowd` — streaming synthesis of up to millions of
  agents from the :mod:`repro.movement` visitor profiles, in
  O(open-agents) memory and byte-identical for a fixed seed;
* :mod:`repro.synth.pacing` — the shared open-loop arrival schedule
  that paces load without coordinated omission;
* :mod:`repro.synth.replayer` — a traffic replayer that drives the
  asyncio front-end with a synthesized crowd as batch ingest,
  ``AppendEvents`` streams, or query mixes, recording
  throughput/latency/shed counters.
"""

from repro.synth.venues import (
    ARCHETYPES,
    SyntheticVenue,
    VenueSpec,
    generate_venue,
)
from repro.synth.crowd import CrowdSpec, CrowdSynthesizer
from repro.synth.pacing import ArrivalSchedule
from repro.synth.replayer import ReplayReport, TrafficReplayer

__all__ = [
    "ARCHETYPES",
    "SyntheticVenue",
    "VenueSpec",
    "generate_venue",
    "CrowdSpec",
    "CrowdSynthesizer",
    "ArrivalSchedule",
    "ReplayReport",
    "TrafficReplayer",
]
