"""Tests for the serving tier (pool and front-end)."""
