"""Simulator and verification suite for depth-d shufflings of Simon's problem.

A (d, f)-shuffling hides a Simon or one-to-one core behind d uniformly random
injective relabeling levels; recovering anything useful takes a chain of
adaptive queries of depth d+1, which is what the depth-budgeted schemes and
adversaries here measure.
"""

__version__ = "0.1.0"
