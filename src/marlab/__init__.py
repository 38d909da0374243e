"""Desk-scale multi-agent reinforcement learning laboratory.

Cooperative Q-learning with value decomposition (additive and monotonic
mixers), a transformer-based communication stack over the agents' recurrent
states, top-k Boltzmann exploration, and traffic accounting for centralized
vs distributed deployment of the communication step.
"""

__version__ = "0.1.0"
