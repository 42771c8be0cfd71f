"""Seeded environment knobs in a kernel module."""

import os

THREADS = int(os.environ.get("RITA_THREADS", "1"))  # EXPECT[env-knob]
BACKEND = os.getenv("RITA_BACKEND", "fused")  # EXPECT[env-knob]


def threshold():
    return int(os.environ["RITA_SHARD_MIN"])  # EXPECT[env-knob]


def unexplained():
    return os.getenv("RITA_FLAG")  # repro: allow[scatter-at] - wrong rule id  # EXPECT[env-knob]
