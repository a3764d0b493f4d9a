"""Per-face geometric features and their multi-scale aggregation."""
