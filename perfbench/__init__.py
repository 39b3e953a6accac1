"""Benchmark for the ZO-score, ZO-decision and BO-score attacks."""
