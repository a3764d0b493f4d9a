"""From-scratch 1D networks: layers, assemblies, training."""
