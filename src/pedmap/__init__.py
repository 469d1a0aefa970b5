"""Pedestrian hotspot maps from repeated drive logs, with replayed driver advisories."""

__version__ = "0.1.0"
