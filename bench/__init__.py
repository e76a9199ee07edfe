"""Seeded end-to-end and per-layer benchmark of the sepenum CLI."""
