"""One allowed read with its reason, plus os use that reads no variable."""

import os

DTYPE_ENV_VAR = "RITA_COMPUTE_DTYPE"

# repro: allow[env-knob] - the one policy a process fixes before its first tensor
DEFAULT = os.environ.get(DTYPE_ENV_VAR, "float32")


def scratch_path(root, name):
    return os.path.join(root, f"{name}.{os.getpid()}")
