"""End-to-end and per-layer benchmark of the repro serving stack (see README.md)."""
