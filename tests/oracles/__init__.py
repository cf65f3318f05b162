"""Frozen reference implementations that the library's fast paths are
pinned against (bit-identical parity properties live in the tests)."""
