"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.kernels


@pytest.fixture(scope="session", autouse=True)
def _float64_policy():
    """Run the suite under the float64 compute policy.

    The library default is float32 (production inference speed); the test
    suite pins float64 so numerical gradient checks stay sharp and seed
    tolerances keep their original meaning.  Kernel dtype-parity tests
    opt into float32 explicitly via ``repro.kernels.dtype_scope``.
    """
    previous = repro.kernels.set_default_dtype(np.float64)
    yield
    repro.kernels.set_default_dtype(previous)


def _kernel_policy() -> dict:
    return {
        "backend": repro.kernels.get_backend().name,
        "num_threads": repro.kernels.get_num_threads(),
        "parallel_threshold": repro.kernels.get_parallel_threshold(),
        "default_dtype": repro.kernels.get_default_dtype(),
    }


@pytest.fixture(autouse=True)
def _kernel_policy_unchanged():
    """Fail a test that leaves the process-wide kernel policy changed.

    Backend, thread count, shard threshold and dtype are process globals:
    a test that sets one without restoring it silently reruns every later
    test under that setting (e.g. a whole ``RITA_KERNEL_BACKEND=parallel``
    run falling back to ``fused``).  The policy is restored before failing
    so the leak stops at the test that caused it.
    """
    before = _kernel_policy()
    yield
    after = _kernel_policy()
    if after != before:
        repro.kernels.set_backend(before["backend"])
        repro.kernels.set_num_threads(before["num_threads"])
        repro.kernels.set_parallel_threshold(before["parallel_threshold"])
        repro.kernels.set_default_dtype(before["default_dtype"])
        pytest.fail(f"test changed the kernel policy: {before} -> {after}")


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def npz_resave():
    """Rewrite an ``.npz`` bundle with keys dropped/replaced.

    Corruption helper shared by the checkpoint- and artifact-format
    failure-mode suites: ``npz_resave(path, out, drop=(...), key=value)``
    returns ``out`` rewritten from ``path`` minus ``drop`` plus the
    replacements.  The integrity digest is restamped over the edited
    payload so the rewrite exercises the *semantic* failure mode behind
    the digest gate (pass ``restamp=False`` to leave the now-stale
    digest in place and trigger ``IntegrityError`` instead).
    """
    from repro.serialize import INTEGRITY_KEY, integrity_entry

    def _resave(path, out, drop=(), restamp=True, **replace):
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files if k not in drop}
        payload.update(replace)
        if restamp and INTEGRITY_KEY in payload:
            payload[INTEGRITY_KEY] = integrity_entry(payload)  # digest skips the key itself
        np.savez(out, **payload)
        return out

    return _resave


@pytest.fixture(autouse=True)
def _seed_global():
    """Make the process-global RNG deterministic for every test."""
    repro.seed_all(777)
    yield


@pytest.fixture(scope="session")
def tiny_har_bundle():
    """A tiny WISDM-style bundle shared by model/task/integration tests."""
    return repro.load_dataset(
        "wisdm", size_scale=0.002, length_scale=0.25,
        rng=np.random.default_rng(99),
    )


@pytest.fixture(scope="session")
def tiny_rita_config(tiny_har_bundle):
    return repro.RitaConfig(
        input_channels=tiny_har_bundle.channels,
        max_len=tiny_har_bundle.length,
        dim=16,
        n_heads=2,
        n_layers=2,
        attention="group",
        n_groups=8,
        dropout=0.0,
        n_classes=tiny_har_bundle.n_classes,
    )
