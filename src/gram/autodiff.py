"""Reverse-mode automatic differentiation over dense tensors.

The engine is a dynamic tape: each op on grad-enabled tensors records its
parents and a backward closure on the output tensor. ``backward`` walks the
recorded graph once in reverse topological order, accumulates gradients for
every grad-enabled leaf, then frees the tape. A graph can be consumed
exactly once. An op computes its output array, defines one ``run(g, acc)``
closure that passes each parent's share of the output gradient ``g`` to
``acc``, and hands both to ``_result``.

Every op is one primitive except five fused ops. Three run a numpy loop
inside a single node with a hand-written backward, since a node per loop
iteration made the Python cost of the ops, not their arithmetic, the cost
of a batch. Four take one ragged convention: user (or item) i owns the
next lengths[i] interaction (or token) rows, and nothing is padded or
masked. ``gru_scan`` and ``prefix_attention`` share one longest-first
slot layout: step n runs only on the users longer than n + 1, a leading
slice of that order, and each returns one row per predicted slot.
``gru_scan`` runs a whole gated recurrence and backpropagates through
time over the states it saved; it follows the per-step primitives'
expressions, and its values and gradients agree with the per-user
reference in ``tests/reference_cf.py`` to float64 rounding.
``prefix_attention`` runs softmax attention and additive pooling over
every proper prefix of every user's history. It reads a table of
projected rows through a per-interaction index, so interactions may
share a row; it saves nothing beyond the table and recomputes each
prefix's softmaxes in backward, so its activation memory does not grow
with the number of prefixes. ``ce_block`` runs one residual encoder
layer over the ragged token rows of many items, looping only over the
length groups of its attention; it saves its intermediates and
recomputes nothing, so a joint backward stays a plain no-recompute
backprop. ``segment_mean`` mean-pools ragged runs of rows in one node,
and ``row_dot`` takes row-wise dot products against rows of a table
picked by an index, keeping the table rather than the picked rows.
Every op that reads rows through an index (``gather``, ``row_dot``,
``prefix_attention``) scatter-adds their gradients with one bincount.

The training loss ``bce_loss`` takes logits, not probabilities: it sums
the binary cross-entropy of their sigmoid in softplus form, so it is
finite for every finite logit in either dtype and needs no probability
clamp, and its gradient sigmoid(x) - y is never zeroed.

Design constraints, chosen to keep gradient code honest at desk scale:

* float64 by default; float32 is opt-in via ``set_default_dtype``, per
  thread.
* No broadcasting beyond scalar-with-tensor and row-wise bias add. All
  other shape mismatches raise ``ShapeError``.
* Every primitive validates that its output is finite; NaN/Inf raises
  ``NonFiniteError`` immediately instead of propagating.
* Single-threaded per graph. Grad mode, the default dtype and the
  activation accountant are thread-local, so independent graphs may live
  on independent threads.

Activation accounting: when an accountant is installed via
``track_activations``, each node reports the element count of non-leaf
arrays its backward closure retains (leaf data -- parameters and inputs --
is excluded; both training styles hold it equally). The count is acquired
at node creation and released when backward consumes the node, which makes
the accountant's peak a deterministic, allocator-independent proxy for
activation memory.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "NonFiniteError",
    "GraphConsumedError",
    "Tensor",
    "tensor",
    "zeros",
    "set_default_dtype",
    "default_dtype",
    "no_grad",
    "is_grad_enabled",
    "track_activations",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "stack",
    "gather",
    "row_dot",
    "sum_all",
    "add_n",
    "mean_pool",
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "bce_loss",
    "mse_half",
    "gru_scan",
    "prefix_attention",
    "ce_block",
    "segment_mean",
    "slot_order",
    "backward",
    "grad_check",
]


class AutodiffError(Exception):
    """Base class for graph construction and execution errors."""


class ShapeError(AutodiffError):
    """Operands have shapes the requested op does not accept."""


class NonFiniteError(AutodiffError):
    """An op produced NaN or Inf."""


class GraphConsumedError(AutodiffError):
    """backward() touched a graph that was already consumed."""


_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

_STATE = threading.local()


def set_default_dtype(dtype) -> None:
    """Set the dtype this thread uses for newly created tensors (float64
    or float32); other threads keep their own."""
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dt}; use float64 or float32")
    _STATE.dtype = dt


def default_dtype() -> np.dtype:
    return getattr(_STATE, "dtype", _FLOAT_DTYPES[0])


def is_grad_enabled() -> bool:
    return getattr(_STATE, "grad_mode", True)


def _accountant():
    return getattr(_STATE, "accountant", None)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape (outputs are plain values)."""
    prev = is_grad_enabled()
    _STATE.grad_mode = False
    try:
        yield
    finally:
        _STATE.grad_mode = prev


@contextlib.contextmanager
def track_activations(accountant):
    """Report saved-activation element counts of new nodes to *accountant*.

    *accountant* needs ``acquire(n)`` and ``release(n)`` methods; see
    ``instrument.ActivationAccountant``.
    """
    prev = _accountant()
    _STATE.accountant = accountant
    try:
        yield accountant
    finally:
        _STATE.accountant = prev


class Tensor:
    """Dense n-dimensional value with optional gradient participation.

    Tensors are immutable values: no op writes to ``data`` after
    construction, so a tensor may be shared freely between graphs and
    threads. Internal (op-produced) tensors additionally carry the tape
    bookkeeping needed by ``backward``.
    """

    __slots__ = ("data", "grad_enabled", "_parents", "_backward", "_saved", "_acct", "_consumed")

    def __init__(self, data, grad_enabled: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=np.dtype(dtype))
        elif isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data, dtype=default_dtype())
        if arr.dtype not in _FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {arr.dtype}; use float64 or float32")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor data contains NaN or Inf")
        self.data = arr
        self.grad_enabled = bool(grad_enabled)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None
        self._saved = 0
        self._acct = None
        self._consumed = False

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: arr is already validated / freshly computed.
        t = object.__new__(cls)
        t.data = arr
        t.grad_enabled = False
        t._parents = ()
        t._backward = None
        t._saved = 0
        t._acct = None
        t._consumed = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def is_leaf(self) -> bool:
        return self._backward is None and not self._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A leaf tensor sharing this tensor's values, outside any graph."""
        return Tensor._wrap(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.grad_enabled else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"


def tensor(data, grad: bool = False, dtype=None) -> Tensor:
    """Create a leaf tensor; ``grad=True`` marks it a differentiable leaf."""
    return Tensor(data, grad_enabled=grad, dtype=dtype)


def zeros(shape, grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.dtype(dtype) if dtype else default_dtype()), grad_enabled=grad)


def _check_dtypes(op: str, *ts: Tensor) -> None:
    dt = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != dt:
            raise TypeError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")


def _result(
    arr: np.ndarray,
    parents: Sequence[Tensor],
    backward_fn: Callable,
    saved: Sequence[Tensor] = (),
    op: str = "op",
    saved_elements: int = 0,
) -> Tensor:
    """Finalize an op: finiteness check, then tape recording if needed.

    *backward_fn* is the op's ``run(g, acc)`` closure. It is stored as the
    output's ``_backward`` only when the output joins a graph; a no-grad
    forward builds it and drops it. *saved_elements* counts arrays the op
    computed and keeps for its backward beyond its parents and output.
    """
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    if not is_grad_enabled() or not any(p.grad_enabled for p in parents):
        return Tensor._wrap(arr)
    out = Tensor._wrap(arr)
    out.grad_enabled = True
    out._parents = tuple(parents)
    out._backward = backward_fn
    acct = _accountant()
    if acct is not None:
        n = sum(t.data.size for t in saved if not t.is_leaf()) + saved_elements
        if n:
            acct.acquire(n)
            out._saved = n
            out._acct = acct
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural primitives
# ---------------------------------------------------------------------------


def _reduce_to(t: Tensor, g: np.ndarray) -> np.ndarray:
    """Reduce gradient *g* of a broadcast binary op to operand *t*'s shape:
    as is for equal rank, summed for a 0-d operand, summed over rows for a
    row bias."""
    nd = t.data.ndim
    if nd == g.ndim:
        return g
    return np.sum(g) if nd == 0 else g.sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b. Accepts equal shapes, a scalar operand, or a row-wise bias
    (a of shape (m, n) plus b of shape (n,))."""
    _check_dtypes("add", a, b)
    if not (a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0
            or (a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0])):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def run(g, acc):
        acc(a, _reduce_to(a, g))
        acc(b, _reduce_to(b, g))

    return _result(a.data + b.data, (a, b), run, op="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b for equal shapes or a scalar operand."""
    _check_dtypes("sub", a, b)
    if not (a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0):
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def run(g, acc):
        acc(a, _reduce_to(a, g))
        acc(b, _reduce_to(b, -g))

    return _result(a.data - b.data, (a, b), run, op="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b for equal shapes or a scalar operand."""
    _check_dtypes("mul", a, b)
    if not (a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def run(g, acc):
        acc(a, _reduce_to(a, g * bd))
        acc(b, _reduce_to(b, g * ad))

    return _result(ad * bd, (a, b), run, saved=(a, b), op="mul")


def scale(a: Tensor, c: float) -> Tensor:
    """a * c for a Python scalar c (recorded as a constant)."""
    c = float(c)

    def run(g, acc):
        acc(a, g * c)

    return _result(a.data * c, (a,), run, op="scale")


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or of two 3-D stacks of matrices
    with equal batch size ((B, m, k) @ (B, k, n) -> (B, m, n))."""
    _check_dtypes("matmul", a, b)
    nd = a.data.ndim
    if nd not in (2, 3) or b.data.ndim != nd:
        raise ShapeError(f"matmul: needs two 2-D or two 3-D operands, got {a.shape} and {b.shape}")
    if nd == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch sizes disagree, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def run(g, acc):
        acc(a, g @ np.swapaxes(bd, -1, -2))
        acc(b, np.swapaxes(ad, -1, -2) @ g)

    return _result(ad @ bd, (a, b), run, saved=(a, b), op="matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose: needs a 2-D or 3-D tensor, got {a.shape}")

    def run(g, acc):
        acc(a, np.ascontiguousarray(np.swapaxes(g, -1, -2)))

    return _result(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,), run, op="transpose")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from e

    def run(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _result(np.ascontiguousarray(out), (a,), run, op="reshape")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along *axis*; all other dimensions must agree."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: empty input list")
    _check_dtypes("concat", *ts)
    ndim = ts[0].data.ndim
    ax = axis if axis >= 0 else axis + ndim
    for t in ts:
        if t.data.ndim != ndim:
            raise ShapeError("concat: rank mismatch")
        for d in range(ndim):
            if d != ax and t.shape[d] != ts[0].shape[d]:
                raise ShapeError(f"concat: shape mismatch off axis {ax}: {t.shape} vs {ts[0].shape}")

    def run(g, acc):
        bounds = np.cumsum([0] + [t.shape[ax] for t in ts])
        for t, lo, hi in zip(ts, bounds[:-1], bounds[1:]):
            idx = tuple(slice(None) if d != ax else slice(lo, hi) for d in range(ndim))
            acc(t, np.ascontiguousarray(g[idx]))

    return _result(np.concatenate([t.data for t in ts], axis=ax), ts, run, op="concat")


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("stack: empty input list")
    _check_dtypes("stack", *ts)
    shp = ts[0].shape
    for t in ts:
        if t.shape != shp:
            raise ShapeError(f"stack: shape mismatch {t.shape} vs {shp}")

    def run(g, acc):
        for i, t in enumerate(ts):
            # asarray, not ascontiguousarray: the latter would promote
            # scalar slices to shape (1,)
            acc(t, np.asarray(g[i]))

    return _result(np.stack([t.data for t in ts]), ts, run, op="stack")


def _row_ids(op: str, ids, n_rows: int) -> np.ndarray:
    """*ids* as a 1-D index array into a table of *n_rows* rows."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: ids must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"{op}: id out of range [0, {n_rows})")
    return idx


def _scatter_rows(idx: np.ndarray, g: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row j of *g* added into row idx[j] of a zero array shaped like the
    2-D *table*, in its dtype. One bincount over flattened (row, column)
    bins adds in np.add.at's order, so float64 sums are bit-identical to
    it, and is faster."""
    v, d = table.shape
    flat = np.bincount((idx[:, None] * d + np.arange(d)).ravel(), g.ravel(), minlength=v * d)
    return flat.reshape(v, d).astype(table.dtype, copy=False)


def gather(table: Tensor, ids) -> Tensor:
    """Select rows of a (V, d) table. Backward scatter-adds row gradients,
    so repeated ids accumulate their upstream gradients into one row."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather: table must be 2-D, got {table.shape}")
    idx = _row_ids("gather", ids, table.shape[0])

    def run(g, acc):
        acc(table, _scatter_rows(idx, g, table.data))

    return _result(table.data[idx], (table,), run, op="gather")


def row_dot(a: Tensor, table: Tensor, ids) -> Tensor:
    """Row-wise dot products of *a* (m, k) with rows of *table* (V, k):
    out[j] = a[j] . table[ids[j]], an (m,) tensor. One node in place of a
    gather and an elementwise product summed over rows; it keeps *a* and
    the table, not the m gathered rows, and backward gathers again and
    scatter-adds, so repeated ids accumulate into one table row."""
    _check_dtypes("row_dot", a, table)
    ad, td = a.data, table.data
    if ad.ndim != 2 or td.ndim != 2 or ad.shape[1] != td.shape[1]:
        raise ShapeError(f"row_dot: needs (m, k) and (V, k) operands, got {a.shape} and {table.shape}")
    idx = _row_ids("row_dot", ids, td.shape[0])
    if idx.size != ad.shape[0]:
        raise ShapeError(f"row_dot: {idx.size} ids for {ad.shape[0]} rows")

    def run(g, acc):
        acc(a, g[:, None] * td[idx])
        acc(table, _scatter_rows(idx, g[:, None] * ad, td))

    return _result(np.einsum("ij,ij->i", ad, td[idx]), (a, table), run, saved=(a, table),
                   op="row_dot")


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def run(g, acc):
        acc(a, np.full(a.data.shape, g, dtype=a.data.dtype))

    return _result(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), run, op="sum_all")


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of equal-shaped tensors as a single node (left-fold order)."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("add_n: empty input list")
    if len(ts) == 1:
        return ts[0]
    _check_dtypes("add_n", *ts)
    shp = ts[0].shape
    for t in ts:
        if t.shape != shp:
            raise ShapeError(f"add_n: shape mismatch {t.shape} vs {shp}")
    out = ts[0].data.copy()
    for t in ts[1:]:
        out += t.data

    def run(g, acc):
        for t in ts:
            acc(t, g)

    return _result(out, ts, run, op="add_n")


def mean_pool(a: Tensor, axis: int = 0) -> Tensor:
    """Mean over one axis (the axis is removed)."""
    if a.data.ndim == 0:
        raise ShapeError("mean_pool: needs at least 1-D input")
    ax = axis if axis >= 0 else axis + a.data.ndim

    def run(g, acc):
        shp = a.data.shape
        acc(a, np.broadcast_to(np.expand_dims(g * (1.0 / shp[ax]), ax), shp).copy())

    return _result(a.data.mean(axis=ax), (a,), run, op="mean_pool")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows, so both np.where branches are safe to
    # evaluate; each branch is the stable form for its sign of x
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def run(g, acc):
        acc(a, g * out * (1.0 - out))

    return _result(out, (a,), run, op="sigmoid", saved_elements=out.size)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def run(g, acc):
        acc(a, g * (1.0 - out * out))

    return _result(out, (a,), run, op="tanh", saved_elements=out.size)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def run(g, acc):
        acc(a, g * (out > 0))

    return _result(out, (a,), run, op="relu", saved_elements=out.size)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_backward(out: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient at the input of a softmax whose output is *out*."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along *axis* (max-subtracted)."""
    ax = axis if axis >= 0 else axis + a.data.ndim
    out = _softmax(a.data, ax)

    def run(g, acc):
        acc(a, _softmax_backward(out, g, ax))

    return _result(out, (a,), run, op="softmax", saved_elements=out.size)


# ---------------------------------------------------------------------------
# Fused ops over users' interaction rows
# ---------------------------------------------------------------------------


def slot_order(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(step, user) of every slot of users owning lengths[i] interactions
    each, step ascending and then user: user i has one slot per step
    n = 0 .. lengths[i] - 2, the slot that reads its interactions 0..n and
    predicts its interaction n + 1. ``gru_scan`` and ``prefix_attention``
    return their slots in this order."""
    lengths = np.asarray(lengths)
    return np.nonzero(np.arange(1, lengths.max(initial=0))[:, None] < lengths)


def _slots(op: str, n_rows: int, lengths):
    """Longest-first slot layout shared by ``gru_scan`` and
    ``prefix_attention``.

    User i owns the next lengths[i] of the *n_rows* interaction rows,
    users in order, and has one slot per step n = 0 .. lengths[i] - 2:
    the slot that reads its rows 0..n and predicts its row n + 1. Users
    are taken longest first, so the users live at step n are a leading
    run of that order and a step's slots are a basic slice. Returns
    (rows, live, counts, ats, perm):

    * rows[n, j] is the j-th longest user's row at position n, the row its
      step n adds (0 where the user has no slot), and live[n, j] marks
      its slots; both are (steps, users of length >= 2);
    * counts[n] and ats[n] are step n's slot count and its offset in the
      step-major packed order, as Python ints;
    * perm maps each output slot, in ``slot_order``, to its packed slot.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.min(initial=0) < 0 or lengths.sum() != n_rows:
        raise ShapeError(f"{op}: lengths must be non-negative and sum to the interactions' "
                         f"{n_rows} rows, got {lengths}")
    steps = int(lengths.max(initial=0)) - 1
    if steps < 1:
        raise ShapeError(f"{op}: no user has a proper prefix (length >= 2)")
    order = np.argsort(-lengths, kind="stable")
    by_len = order[:np.count_nonzero(lengths > 1)]
    step = np.arange(steps)[:, None]
    live = step < lengths[by_len] - 1
    rows = np.where(live, (np.cumsum(lengths) - lengths)[by_len] + step, 0)
    counts = np.count_nonzero(live, axis=1)
    ats = np.concatenate(([0], np.cumsum(counts)))
    # step n's live users are the leading run of ``order``, so a slot's
    # packed index is its step's offset plus its user's rank in ``order``
    n, user = slot_order(lengths)
    perm = ats[n] + np.argsort(order)[user]
    return rows, live, counts.tolist(), ats.tolist(), perm


def gru_scan(xg: Tensor, w_hh: Tensor, b_hh: Tensor, lengths) -> Tensor:
    """A gated recurrent cell over every user's interactions, as one node.

    Rows of *xg* are the interactions' input-side gate preactivations, in
    the column order [reset | update | candidate], each d_h wide; user i
    owns the next lengths[i] rows. From h = 0, step n reads row n of each
    user longer than n + 1 and computes hg = h @ w_hh + b_hh, pre = xg_n +
    hg, r and z = sigmoid of pre's reset and update columns,
    c = tanh(xg_c + r * hg_c) and h = c + z * (h - c). The state after
    step n predicts the user's row n + 1, so a user's last row feeds no
    step. Returns the (n_slots, d_h) states in ``_slots``' output order:
    step ascending, then user.

    Users run longest first, so step n updates a leading slice of step
    n - 1's states and nothing is padded. Backward runs backprop through
    time over the saved r, z, c, hg_c and states, and sums w_hh's and
    b_hh's per-step gradients from the last step to the first; a row no
    step reads gets zero gradient. Under no_grad nothing is kept per step.
    """
    _check_dtypes("gru_scan", xg, w_hh, b_hh)
    x, w, bias = xg.data, w_hh.data, b_hh.data
    if w.ndim != 2 or w.shape[1] != 3 * w.shape[0]:
        raise ShapeError(f"gru_scan: w_hh must be (d_h, 3*d_h), got {w.shape}")
    dh = w.shape[0]
    if bias.shape != (3 * dh,) or x.ndim != 2 or x.shape[1] != 3 * dh:
        raise ShapeError(f"gru_scan: xg {x.shape} and b_hh {bias.shape} do not fit w_hh {w.shape}")
    rows, live, counts, ats, perm = _slots("gru_scan", x.shape[0], lengths)
    at_rows = rows[live]        # row of each packed slot, step-major
    record = is_grad_enabled() and (xg.grad_enabled or w_hh.grad_enabled or b_hh.grad_enabled)
    xs = x[at_rows]
    hs = np.empty((ats[-1], dh), dtype=x.dtype)     # packed states
    saved = []      # (r and z, c, hg_c) per step; hg_c is copied so the rest of hg is freed
    h0 = h = np.zeros((counts[0], dh), dtype=x.dtype)
    for n, b in enumerate(counts):
        xn = xs[ats[n]:ats[n] + b]
        hg = h[:b] @ w + bias
        pre = xn + hg
        if not np.isfinite(pre).all():
            raise NonFiniteError(f"gru_scan produced non-finite gate preactivations at step {n}")
        rz = _sigmoid(pre[:, :2 * dh])
        r, z = rz[:, :dh], rz[:, dh:]
        hg_c = hg[:, 2 * dh:]
        c = xn[:, 2 * dh:] + r * hg_c
        if not np.isfinite(c).all():
            raise NonFiniteError(f"gru_scan produced non-finite candidate preactivations at step {n}")
        c = np.tanh(c)
        h_prev, h = h[:b], hs[ats[n]:ats[n] + b]
        np.add(c, z * (h_prev - c), out=h)
        if record:
            saved.append((rz, c, hg_c.copy()))

    def run(g, acc):
        # each expression, and each sum's order, is the one backward takes
        # through the per-step primitives (matmul, add, sigmoid, tanh, mul,
        # sub); only the number of rows per matmul differs
        gs = np.empty_like(g)
        gs[perm] = g
        dxs = np.empty((ats[-1], 3 * dh), dtype=g.dtype)
        dw = db = None
        dh_n = gs[ats[-2]:]
        for n in range(len(counts) - 1, -1, -1):
            at, b = ats[n], counts[n]
            rz, c, hg_c = saved[n]
            r, z = rz[:, :dh], rz[:, dh:]
            h_prev = hs[ats[n - 1]:ats[n - 1] + b] if n else h0
            ds = dh_n * z
            da = (dh_n - ds) * (1.0 - c * c)
            drz = np.concatenate((da * hg_c, dh_n * (h_prev - c)), axis=1)
            dx_n = dxs[at:at + b]
            dx_n[:, :2 * dh] = drz * rz * (1.0 - rz)
            dx_n[:, 2 * dh:] = da
            dhg = dx_n.copy()
            dhg[:, 2 * dh:] = da * r
            gw = h_prev.T @ dhg
            gb = dhg.sum(axis=0)
            dw = gw if dw is None else dw + gw
            db = gb if db is None else db + gb
            if n:
                # users past their last step pass on only their own slot's gradient
                dh_n = gs[ats[n - 1]:at].copy()
                dh_n[:b] += ds
                dh_n[:b] += dhg @ w.T
        dx = np.zeros_like(x)
        dx[at_rows] = dxs       # each row is one slot's, so assignment scatters
        acc(xg, dx)
        acc(w_hh, dw)
        acc(b_hh, db)

    return _result(hs[perm], (xg, w_hh, b_hh), run, op="gru_scan", saved_elements=5 * hs.size)


def prefix_attention(qkv: Tensor, rows, w_pool: Tensor, v_pool: Tensor, lengths) -> Tensor:
    """Self-attention plus additive pooling over every proper prefix of
    every user's history, as one node.

    Rows of *qkv* (P, 2*d_h + d) are projected interactions, with the
    query, key and value side by side in the column order [q | k | v],
    d_h, d_h and d wide; d and d_h are *w_pool*'s shape. Interaction j
    reads row rows[j] of *qkv*, so interactions that share a projection
    share a row; user i owns the next lengths[i] interactions. For each
    prefix length n = 1 .. max(lengths) - 1, the B_n users longer than n
    attend over their first n interactions: a = softmax(q k^T / sqrt(d_h))
    over each row, ctx = a v, pooling weights w = softmax over the n
    positions of tanh(ctx @ w_pool) @ v_pool, and the user vector is
    w^T ctx. Returns the (n_slots, d) user vectors in ``_slots``' output
    order: prefix length ascending, then user. The scores of each prefix
    are checked to be finite, so an overflow names its prefix length.

    Backward keeps nothing beyond the operands and the index: it gathers
    through *rows* again, recomputes each prefix's attention and pooling,
    adds each prefix's q/k/v gradients into padded per-user buffers, and
    scatter-adds those to the table rows once, so a row several
    interactions read sums their gradients. A user's last interaction is
    read by no prefix and passes no gradient.
    """
    _check_dtypes("prefix_attention", qkv, w_pool, v_pool)
    x, wp, vp = qkv.data, w_pool.data, v_pool.data
    d, dh = wp.shape if wp.ndim == 2 else (0, 0)
    if x.ndim != 2 or dh == 0 or x.shape[1] != 2 * dh + d or vp.shape != (dh, 1):
        raise ShapeError(f"prefix_attention: qkv {x.shape}, w_pool {wp.shape} and v_pool "
                         f"{vp.shape} must be (P, 2*d_h + d), (d, d_h) and (d_h, 1)")
    idx = _row_ids("prefix_attention", rows, x.shape[0])
    slot_rows, live, counts, ats, perm = _slots("prefix_attention", idx.size, lengths)
    # padded (B, steps) table rows, users longest first: prefix n is the
    # basic slice [:B_n, :n], and padding is never read
    pad_rows, live = idx[slot_rows.T], live.T
    scale_qk = dh ** -0.5       # a Python float keeps float32 operands float32

    def operands():
        return x[pad_rows, :dh] * scale_qk, x[pad_rows, dh:2 * dh], x[pad_rows, 2 * dh:]

    def attend(n, b, qs, kp, vpad):
        qn, kn, vn = qs[:b, :n], kp[:b, :n], vpad[:b, :n]
        s = qn @ kn.transpose(0, 2, 1)
        if not np.isfinite(s).all():
            raise NonFiniteError(f"prefix_attention produced non-finite attention scores "
                                 f"at prefix length {n}")
        a = _softmax(s)
        ctx = a @ vn
        t = np.tanh(ctx.reshape(b * n, d) @ wp)
        return qn, kn, vn, a, ctx, t, _softmax((t @ vp).reshape(b, 1, n))     # w is (b, 1, n)

    out = np.empty((ats[-1], d), dtype=x.dtype)
    qs, kp, vpad = operands()
    for n, (at, b) in enumerate(zip(ats, counts), 1):
        *_, ctx, _, w = attend(n, b, qs, kp, vpad)
        out[at:at + b] = (w @ ctx).reshape(b, d)
    out = out[perm]

    def run(g, acc):
        # each expression follows the backward of the primitive it fuses
        # (matmul, softmax, tanh, reshape, transpose)
        gs = np.empty_like(g)
        gs[perm] = g
        qs, kp, vpad = operands()
        dqs, dkp, dvpad = np.zeros_like(qs), np.zeros_like(kp), np.zeros_like(vpad)
        dwp, dvp = np.zeros_like(wp), np.zeros_like(vp)
        wp_t, vp_t = wp.T, vp.T
        for n, (at, b) in enumerate(zip(ats, counts), 1):
            qn, kn, vn, a, ctx, t, w = attend(n, b, qs, kp, vpad)
            gu = gs[at:at + b].reshape(b, 1, d)
            dw = gu @ ctx.transpose(0, 2, 1)
            dctx = w.transpose(0, 2, 1) @ gu
            dpre = _softmax_backward(w, dw).reshape(b * n, 1)
            dvp += t.T @ dpre
            dht = (dpre @ vp_t) * (1.0 - t * t)
            dwp += ctx.reshape(b * n, d).T @ dht
            dctx += (dht @ wp_t).reshape(b, n, d)
            da = dctx @ vn.transpose(0, 2, 1)
            ds = _softmax_backward(a, da)
            dqs[:b, :n] += ds @ kn
            dkp[:b, :n] += ds.transpose(0, 2, 1) @ qn
            dvpad[:b, :n] += a.transpose(0, 2, 1) @ dctx
        dlive = np.concatenate(((dqs * scale_qk)[live], dkp[live], dvpad[live]), axis=1)
        acc(qkv, _scatter_rows(pad_rows[live], dlive, x))
        acc(w_pool, dwp)
        acc(v_pool, dvp)

    return _result(out, (qkv, w_pool, v_pool), run, saved=(qkv,), op="prefix_attention")


# ---------------------------------------------------------------------------
# Fused content-encoder block
# ---------------------------------------------------------------------------


def ce_block(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, w_ff1: Tensor,
             w_ff2: Tensor, lengths) -> Tensor:
    """One residual encoder layer over the token rows of many items, as one
    node.

    Rows of *x* (N, d) are tokens; item i owns the next lengths[i] rows,
    items in order. Each item's tokens attend over that item's tokens only:
    a = softmax(q k^T / sqrt(d)) with q, k, v = x @ wq, x @ wk, x @ wv,
    x1 = x + (a v) @ wo, and the output is x1 + relu(x1 @ w_ff1) @ w_ff2.
    The q/k/v projection is one matmul against the three weights side by
    side, and the feed-forward two matmuls, over all N rows. Only the
    (b, L, L) attention loops in numpy, once per run of consecutive items
    of equal length L; nothing is padded or masked. The scores of each run
    are checked to be finite, so an overflow names its token length.

    Backward recomputes nothing: the node keeps x, the q/k/v projection,
    the attention probabilities, the attended values, x1 and the relu
    output, and its gradients are those of the per-op graph, up to the
    order of additions.
    """
    ts = (x, wq, wk, wv, wo, w_ff1, w_ff2)
    _check_dtypes("ce_block", *ts)
    xd = x.data
    d = xd.shape[1] if xd.ndim == 2 else 0
    dff = w_ff1.shape[-1] if w_ff1.data.ndim else 0
    if (xd.ndim != 2 or any(w.shape != (d, d) for w in (wq, wk, wv, wo))
            or w_ff1.shape != (d, dff) or w_ff2.shape != (dff, d)):
        raise ShapeError(f"ce_block: x {xd.shape} needs (d, d) wq/wk/wv/wo, (d, d_ff) w_ff1 "
                         f"and (d_ff, d) w_ff2, got {[t.shape for t in ts[1:]]}")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != xd.shape[0]:
        raise ShapeError(f"ce_block: lengths must be positive and sum to the {xd.shape[0]} rows "
                         f"of x, got {lengths}")
    # (first row, items, length) of each run of consecutive equal lengths
    starts = np.flatnonzero(np.diff(lengths, prepend=0))
    row0 = np.concatenate(([0], np.cumsum(lengths)))
    runs = [(int(row0[s]), int(e - s), int(lengths[s]))
            for s, e in zip(starts, np.append(starts[1:], lengths.size))]
    scale_qk = d ** -0.5        # a Python float keeps float32 operands float32

    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv = xd @ w_qkv
    attended = np.empty_like(xd)
    probs = []
    for r0, b, n in runs:
        blk = qkv[r0:r0 + b * n].reshape(b, n, 3 * d)
        s = (blk[..., :d] @ blk[..., d:2 * d].transpose(0, 2, 1)) * scale_qk
        if not np.isfinite(s).all():
            raise NonFiniteError(f"ce_block produced non-finite attention scores at token "
                                 f"length {n}")
        a = _softmax(s)
        attended[r0:r0 + b * n] = (a @ blk[..., 2 * d:]).reshape(b * n, d)
        probs.append(a)
    x1 = xd + attended @ wo.data
    h = np.maximum(x1 @ w_ff1.data, 0.0)
    out = x1 + h @ w_ff2.data

    def run(g, acc):
        # each expression follows the backward of the primitive it fuses
        # (matmul, softmax, scale, relu, add)
        dpre = (g @ w_ff2.data.T) * (h > 0)
        acc(w_ff2, h.T @ g)
        acc(w_ff1, x1.T @ dpre)
        dx1 = g + dpre @ w_ff1.data.T
        acc(wo, attended.T @ dx1)
        dat = dx1 @ wo.data.T
        dqkv = np.empty_like(qkv)
        for (r0, b, n), a in zip(runs, probs):
            blk = qkv[r0:r0 + b * n].reshape(b, n, 3 * d)
            dblk = dqkv[r0:r0 + b * n].reshape(b, n, 3 * d)
            gat = dat[r0:r0 + b * n].reshape(b, n, d)
            da = gat @ blk[..., 2 * d:].transpose(0, 2, 1)
            ds = _softmax_backward(a, da) * scale_qk
            dblk[..., :d] = ds @ blk[..., d:2 * d]
            dblk[..., d:2 * d] = ds.transpose(0, 2, 1) @ blk[..., :d]
            dblk[..., 2 * d:] = a.transpose(0, 2, 1) @ gat
        dw = xd.T @ dqkv
        acc(wq, dw[:, :d])
        acc(wk, dw[:, d:2 * d])
        acc(wv, dw[:, 2 * d:])
        acc(x, dx1 + dqkv @ w_qkv.T)

    saved = qkv.size + sum(a.size for a in probs) + attended.size + x1.size + h.size
    return _result(out, ts, run, saved=(x,), op="ce_block", saved_elements=saved)


def segment_mean(x: Tensor, lengths) -> Tensor:
    """Mean of each run of rows: item i owns the next lengths[i] rows of
    *x* (N, d), items in order; returns the (len(lengths), d) means."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (x.data.ndim != 2 or lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1
            or lengths.sum() != x.shape[0]):
        raise ShapeError(f"segment_mean: lengths must be positive and sum to the rows of a "
                         f"2-D x, got {lengths} for {x.shape}")
    n = lengths.astype(x.data.dtype)[:, None]
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def run(g, acc):
        acc(x, np.repeat(g / n, lengths, axis=0))

    return _result(np.add.reduceat(x.data, starts, axis=0) / n, (x,), run, op="segment_mean")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def bce_loss(logits: Tensor, y: Tensor) -> Tensor:
    """Summed binary cross-entropy between sigmoid(logits) and labels y in
    {0, 1}.

    Each term is computed from the logit x in softplus form,
    max(x, 0) - y*x + log1p(exp(-|x|)), which is finite for every finite
    x, and its gradient sigmoid(x) - y is never clipped. Gradients flow to
    the logits only; labels are data.
    """
    if logits.shape != y.shape:
        raise ShapeError(f"bce_loss: shape mismatch {logits.shape} vs {y.shape}")
    if y.grad_enabled:
        raise ValueError("bce_loss: labels must not require grad")
    yd = y.data
    if not np.all((yd == 0.0) | (yd == 1.0)):
        raise ValueError("bce_loss: labels must be exactly 0 or 1")
    x = logits.data
    terms = np.maximum(x, 0.0) - yd * x + np.log1p(np.exp(-np.abs(x)))

    def run(g, acc):
        acc(logits, g * (_sigmoid(x) - yd))

    return _result(np.asarray(terms.sum(), dtype=x.dtype), (logits,), run,
                   saved=(logits,), op="bce_loss")


def mse_half(a: Tensor, b: Tensor) -> Tensor:
    """Half squared error 0.5 * sum((a - b)^2), summed over all elements.

    d/db = (b - a), so regressing b onto a fixed target a yields the plain
    residual as gradient.
    """
    _check_dtypes("mse_half", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mse_half: shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data

    def run(g, acc):
        acc(a, g * diff)
        acc(b, -g * diff)

    return _result(np.asarray(0.5 * np.sum(diff * diff), dtype=a.data.dtype), (a, b), run, saved=(a, b), op="mse_half")


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar loss.

    Returns a map from every grad-enabled leaf reachable from *loss* to
    its gradient. The graph is consumed: saved activations are released
    and a second backward over any of its nodes raises
    ``GraphConsumedError``.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not loss.grad_enabled:
        raise AutodiffError("backward: loss does not participate in any gradient")
    if loss._consumed:
        raise GraphConsumedError("backward: graph already consumed")

    topo: list[Tensor] = []
    seen: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(loss, False)]
    while work:
        node, done = work.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for p in node._parents:
            if not p.grad_enabled or id(p) in seen:
                continue
            if p._consumed:
                raise GraphConsumedError("backward: graph shares nodes with a consumed graph")
            work.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}

    def acc(t: Tensor, g: np.ndarray) -> None:
        if not t.grad_enabled:
            return
        k = id(t)
        cur = grads.get(k)
        grads[k] = g if cur is None else cur + g

    result: dict[Tensor, Tensor] = {}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if node._backward is None:
            result[node] = Tensor._wrap(np.asarray(g))
            continue
        node._backward(g, acc)
        node._consumed = True
        node._backward = None
        node._parents = ()
        if node._acct is not None:
            node._acct.release(node._saved)
            node._acct = None
            node._saved = 0
    return result


def grad_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Compare reverse-mode gradients of scalar-valued ``f`` at ``x``
    against central finite differences.

    Returns max|analytic - numeric| / (max|analytic| + max|numeric| +
    1e-12), the relative error ``training.max_rel_err`` takes per tensor,
    so a component far smaller than the gradient's scale is not judged by
    its own rounding.
    """
    if not x.grad_enabled:
        raise AutodiffError("grad_check: x must be a grad-enabled leaf")
    out = f(x)
    if out.data.ndim != 0:
        raise ShapeError("grad_check: f must be scalar-valued")
    gmap = backward(out)
    analytic = gmap[x].data if x in gmap else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat_num = numeric.ravel()
    with no_grad():
        for i in range(x.data.size):
            xp = x.data.copy()
            xp.ravel()[i] += eps
            fp = float(f(Tensor._wrap(xp)).data)
            xm = x.data.copy()
            xm.ravel()[i] -= eps
            fm = float(f(Tensor._wrap(xm)).data)
            flat_num[i] = (fp - fm) / (2.0 * eps)

    if not x.data.size:
        return 0.0
    gap = np.abs(analytic - numeric).max()
    return float(gap / (np.abs(analytic).max() + np.abs(numeric).max() + 1e-12))
