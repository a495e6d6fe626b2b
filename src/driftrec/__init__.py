"""Recency-layered implicit-feedback recommendation toolkit.

Pipeline: a timestamped interaction log becomes a recency-weighted bipartite
graph; equal-width weight thresholds carve the graph into layers; recent
layers contribute extra copies of their pairs to the positive multiset that
trains a pairwise-ranking recommender. Evaluation is strictly chronological,
and one-step probes verify the margin guarantees that motivate the layering.
"""

__version__ = "0.1.0"
