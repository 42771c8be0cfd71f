"""Seeded environment knobs reached through a from-import."""

import os.path
from os import environ, getenv  # EXPECT[env-knob]


def workers():
    return int(getenv("RITA_WORKERS", "2")) + len(environ)


def cache_dir():
    return os.path.join(os.environ["HOME"], ".rita")  # EXPECT[env-knob]
