"""Attributes named like the environment on other objects are not reads."""

import os


def bench_dir(settings):
    override = os.environ.get("RITA_BENCH_DIR")  # repro: allow[env-knob] - a path, not a behaviour
    return override or settings.environ.get("bench_dir")


def cpus():
    return os.cpu_count() or 1
