"""Seeded layering violation: a repro module with no rank in the DAG."""  # EXPECT[layering]

from repro.errors import ConfigError


def check(value):
    if value is None:
        raise ConfigError("no value")
    return value
