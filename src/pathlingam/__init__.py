"""Causal ordering of linear non-Gaussian data by shortest-path search.

The toolkit estimates a causal ordering by running Dijkstra over the
lattice of feature subsets, scoring each step with a pairwise likelihood
ratio (default) or a k-nearest-neighbor mutual information estimate. Around
that core it bundles a synthetic data generator with latent confounders,
sparse adjacency estimation for a fixed ordering, path-length distribution
features, kNN predictors of generator properties from those features, and a
benchmark driver.
"""

__version__ = "0.1.0"
