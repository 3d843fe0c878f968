"""End-to-end and per-layer benchmark of the discovery system (see README.md here)."""
