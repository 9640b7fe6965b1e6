"""Agents negotiating dimension weights through graded-label assertion games.

The package models labels as prototypes with uncertain thresholds on a
conceptual space, combines them into weighted compounds, and simulates
populations of agents that assert compound labels about observed points
and nudge their dimension weights toward each assertion's implied value.
Alongside the simulator sit closed-form predictions of where the weight
population comes to rest and how fast it converges, plus a seeded,
replicated experiment layer and a command-line front end.  Each public
name is imported from its module: ``labels``, ``combine``, ``game``,
``analysis``, ``experiment``, ``config`` or ``cli``.
"""

__version__ = "0.1.0"
