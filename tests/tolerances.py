"""Every parity bar in the suite, in one table: path x dtype -> bar.

A parity bar holds two execution paths of the same values together:
backends, dtypes, padded or masked vs plain, batched, chunked, streamed,
served, saved and loaded.  A bar is :data:`BITWISE` (both sides run the
same kernels in the same order) or a :class:`Bar` of ``(rtol, atol)``;
each row says what its path is compared against and why the bar holds.
The oracle is the direct model on ``reference`` in float64: the
``model`` row ties the direct model on either backend and dtype to it,
and every other serving path meets the direct model on its own backend
and dtype.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BITWISE = "bitwise"


class Bar(NamedTuple):
    rtol: float
    atol: float


class Row(NamedTuple):
    bar: Bar | str
    reason: str


def _rows(path: str, f64, f32, reason: str) -> dict[tuple[str, str], Row]:
    """One path's rows; ``None`` where no test compares in that dtype."""
    bars = {"float64": f64, "float32": f32}
    return {(path, dtype): Row(bar, reason) for dtype, bar in bars.items() if bar is not None}


_SUMS64, _SUMS32, _MODEL32 = Bar(0.0, 1e-12), Bar(0.0, 1e-6), Bar(0.0, 1e-4)

#: ``(path, dtype name) -> Row``.  A path splits by dense/ragged input
#: only where one bar cannot serve both; its reason says why.
TOLERANCES: dict[tuple[str, str], Row] = {
    **_rows("model", _SUMS64, _MODEL32, "direct model vs the oracle (float32 on the same "
            "float32-exact weights; ragged series alone): rounding and GEMM shapes only"),
    **_rows("engine", BITWISE, BITWISE, "the engine pads as pad_ragged does and runs the "
            "model's own forward under no_grad: same kernels, same order"),
    **_rows("engine max_batch_size=1", _SUMS64, _MODEL32,
            "one-row chunks: matrix products of other shapes sum in other orders"),
    **_rows("batcher dense", BITWISE, BITWISE,
            "equal lengths stay one dense batch in submit order: the engine's forward"),
    **_rows("batcher ragged", _SUMS64, _MODEL32, "split from dense: requests are sorted by "
            "length and each chunk padded to its own length, so rows run in other shapes"),
    **_rows("streaming", _SUMS64, _MODEL32,
            "windows encode in the batches the appends complete: other GEMM shapes"),
    **_rows("artifact", BITWISE, BITWISE, "save -> load -> engine (exported and loaded under "
            "the float64 policy) serves the same weights in the pinned dtype"),
    **_rows("router", BITWISE, BITWISE,
            "vs the serial fused engine per request: the worker runs that engine"),
    **_rows("kernel, integer inputs", BITWISE, BITWISE, "fused vs reference on integer-valued "
            "floats: every sum is exact in any order; the rows that see a one-ulp drift"),
    **_rows("kernel", _SUMS64, _SUMS32, "fused vs reference or a NumPy expression of the "
            "same math: summation order and in-place steps differ"),
    **_rows("mechanism", _SUMS64, _SUMS32, "a mechanism's forward, fused vs reference"),
    **_rows("mechanism backward", _SUMS64, None, "q/k/v gradients, fused vs reference"),
    **_rows("padded vs solo", Bar(1e-5, 1e-5), Bar(1e-4, 1e-4), "a padded batch vs each "
            "series alone, for a mechanism, the model or a serving call: Performer's "
            "stabilizing shift spans the batch"),
    **_rows("float32 vs float64", None, _MODEL32, "a kernel's or mechanism's float32 output "
            "vs its float64 one: float32 rounding alone"),
    **_rows("masked vs unmasked", Bar(0.0, 1e-13), None, "a masked softmax vs the plain one "
            "on the valid positions: masked zeros join sums"),
    **_rows("masked softmax", BITWISE, BITWISE,
            "fused vs reference: fused runs the reference's steps in place, in the same order"),
    **_rows("forecast", BITWISE, None, "vs reconstruct on the series extended by mask_value: "
            "forecast builds that input and runs that forward"),
    **_rows("checkpoint", BITWISE, None,
            "save_checkpoint -> load_checkpoint restores every weight exactly: the same forward"),
    **_rows("evaluation batch size", Bar(1e-12, 0.0), None,
            "per-batch loss sums re-accumulated vs one batch: another sum order"),
    **_rows("training", Bar(1e-9, 0.0), None,
            "epoch losses, fused vs reference: kernel rounding compounds over every update"),
    **_rows("kmeans partition", BITWISE, BITWISE,
            "fused vs reference from one init: argmin picks the same centers"),
    **_rows("kmeans aggregates", Bar(0.0, 1e-5), Bar(0.0, 1e-5),
            "centers and radii: segment sums in another order, three iterations"),
    **_rows("kmeans inertia", Bar(1e-5, 0.0), Bar(1e-5, 0.0),
            "a sum over every member distance: relative, its scale grows with n"),
    **_rows("distance expansion", Bar(0.0, 1e-9), Bar(0.0, 1e-4),
            "v.v + c.c - 2 v.c vs (v - c).(v - c): cancellation grows with v.v"),
}


def assert_parity(got, want, path: str, dtype, err_msg: str = "") -> None:
    """Shape, then dtype, then values, at the bar for ``(path, dtype)``.

    A floating ``got`` must carry ``dtype`` (so a float32 result can be
    held to the float64 oracle); any other must carry ``want``'s dtype.
    """
    dtype = np.dtype(dtype)
    bar = TOLERANCES[(path, dtype.name)].bar
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{path}: shape {got.shape} != {want.shape} {err_msg}"
    expected = dtype if want.dtype.kind == "f" else want.dtype
    assert got.dtype == expected, f"{path}: dtype {got.dtype} != {expected} {err_msg}"
    if bar == BITWISE:
        np.testing.assert_array_equal(got, want, err_msg=f"{path}: {err_msg}")
    else:
        np.testing.assert_allclose(got, want, bar.rtol, bar.atol, err_msg=f"{path}: {err_msg}")
