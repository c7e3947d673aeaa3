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
slice of that order, and each returns one row per predicted slot in the
order it computes them, ``slot_order``'s: step ascending, then users
longest first, ties in user order. Both take input rows and their input
weights, project the rows inside the op with one matmul, and read the
projected table through a per-interaction index, so interactions may
share a row; each keeps the input rows, not the table, and its backward
projects them again with the forward's expression, bit for bit.
``gru_scan`` runs a whole gated recurrence and keeps only its input rows
and its states, its output: its backward rebuilds every slot's gates
from them in one bulk pass and backpropagates through time. Its time
loops run only the recurrence: the forward skips its per-step finiteness
checks when a bound on the preactivations shows that none can overflow,
and the backward forms the gate factors and the w_hh and b_hh gradients
in bulk, looping only to carry the state's gradient back. Its values and
gradients agree with the per-user reference in ``tests/reference_cf.py``
to float64 rounding, not bit for bit.
``prefix_attention`` runs causal softmax attention and additive pooling
over every proper prefix of every user's history with no loop: a
position attends only to the positions before it and itself, so each
prefix's pooling is one row of a second causal softmax; it keeps only its
input rows and recomputes the projection and the forward in backward, so
its activation memory does not grow with the number of prefixes.
``ce_block`` runs one residual encoder layer over the ragged token rows
of many items, looping only over the length groups of its attention; it
saves its input and the attention probabilities, and its backward
recomputes the rest: three matmuls over the token rows and one per
length group.
``segment_mean`` mean-pools ragged runs of rows in one node, and
``row_dot`` takes row-wise dot products against rows of a table picked
by an index, keeping the table rather than the picked rows. Every op that reads rows through an index
(``gather``, ``row_dot``, ``gru_scan``, ``prefix_attention``)
scatter-adds their gradients with one bincount.
The fused ops follow one rule (activation recomputation, Chen et al.
2016, arXiv:1604.06174): a node keeps across the step only its operands,
its index arrays and what its backward cannot rebuild cheaply, and its
backward frees each transient after its last use. ``prefix_attention``,
``ce_block`` and the ``softmax`` op share one softmax, in place along
the last axis with an optional causal mask, and one in-place backward;
the four ragged ops share one check of their lengths.

The training loss ``bce_loss`` takes logits, not probabilities: it sums
the binary cross-entropy of their sigmoid in softplus form, so it is
finite for every finite logit in either dtype and needs no probability
clamp, and its gradient sigmoid(x) - y is never zeroed.

Design constraints, chosen to keep gradient code honest at desk scale:

* float64 or float32, never mixed, and no default held anywhere: a
  tensor built from a float64 or float32 array keeps its dtype, any other
  input becomes float64 unless a dtype is given, and every op's output
  and gradients take its operands' dtype.
* No broadcasting beyond scalar-with-tensor and row-wise bias add. All
  other shape mismatches raise ``ShapeError``.
* Every primitive validates that its output is finite; NaN/Inf raises
  ``NonFiniteError`` immediately instead of propagating.
* Single-threaded per graph. Grad mode and the activation accountant are
  thread-local, so independent graphs may live on independent threads.
* Freed heap stays in the process. A joint backward frees a tape of
  megabytes every step. By default glibc hands a freed heap top back to
  the kernel once it passes a trim threshold (about twice the largest
  array freed so far), and it ``mmap``s every array over its mmap
  threshold afresh, so each step faults its tape back in page by page:
  ~600 minor faults per ``e2e`` step at the default sizes. At import,
  ``_keep_freed_heap`` sets the heap policy of a caching allocator
  instead: ``mallopt`` raises the mmap threshold to 32 MiB (glibc's
  ceiling for it) and the trim threshold to 128 MiB, so a step reuses
  the pages the last one freed. The price is that resident memory stays
  at its high-water mark rather than shrinking between steps. Off Linux,
  or where the C library refuses the first call (musl's ``mallopt``
  always does), it changes nothing.

Activation accounting: when an accountant is installed via
``track_activations``, each node reports the element count of non-leaf
arrays its backward closure retains (leaf data -- parameters and inputs --
is excluded; both training styles hold it equally). The rule is exact for
every op the models build: a node's count is the size of the float arrays
its closure holds, less the data of its leaf parents, so an op lists
every operand it reads, labels included, as a parent, and rebuilds small
derived arrays such as a length column in backward. The count is acquired
at node creation and released when backward consumes the node, which makes
the accountant's peak a deterministic, allocator-independent proxy for
activation memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
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

# glibc's <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# the mmap threshold goes first: it is the one glibc may refuse (above its
# ceiling), and a refusal there leaves the policy untouched
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 128 << 20))


def _keep_freed_heap() -> bool:
    """Keep freed heap in the process, as a caching allocator would; see
    the module docstring. Returns True when every ``mallopt`` call
    returned 1. Off Linux or without ``mallopt`` it calls nothing, and
    after a call that returns 0 it makes no further one; either way it
    returns False. ``CDLL(None)`` opens the running process, so no
    library search starts a subprocess."""
    if sys.platform != "linux":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)


_keep_freed_heap()

_STATE = threading.local()


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
            arr = np.asarray(data, dtype=np.float64)
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

    def __repr__(self) -> str:
        flag = ", grad" if self.grad_enabled else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"


def tensor(data, grad: bool = False, dtype=None) -> Tensor:
    """Create a leaf tensor; ``grad=True`` marks it a differentiable leaf."""
    return Tensor(data, grad_enabled=grad, dtype=dtype)


def zeros(shape, grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype), grad_enabled=grad)


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


def _run_lengths(op: str, lengths, n_rows: int, least: int) -> np.ndarray:
    """*lengths* as a 1-D index array of runs that take the op's *n_rows*
    rows in order, each run at least *least* rows long."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < least or lengths.sum() != n_rows:
        raise ShapeError(f"{op}: lengths must be a non-empty 1-D array of ints >= {least} that "
                         f"sum to its {n_rows} rows, got {lengths}")
    return lengths


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
    # exp(-|x|) never overflows; the numerator 1 for x >= 0 and e below
    # gives each sign its stable form, 1 / (1 + e) or e / (1 + e)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def _softmax_last(s: np.ndarray, above: np.ndarray | None = None) -> np.ndarray:
    """Softmax of *s* along its last axis, in place, each row stabilised by
    its own maximum. Entries where the boolean *above* (broadcast against
    *s*) is set become -inf first and get weight 0, which masks the keys
    above a causal diagonal. Returns *s*."""
    if above is not None:
        np.copyto(s, -np.inf, where=above)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_last_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of ``_softmax_last`` from its output *p* and
    output gradient *g*, p * (g - sum(g * p)) along the last axis, written
    into *g* with no temporary the size of *p*. Returns *g*."""
    g -= np.einsum("...j,...j->...", g, p)[..., None]
    g *= p
    return g


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along *axis* (max-subtracted), computed
    on a copy of *a* with *axis* moved last."""
    out = _softmax_last(np.moveaxis(a.data, axis, -1).copy())

    def run(g, acc):
        acc(a, np.moveaxis(_softmax_last_backward(out, np.moveaxis(g, axis, -1).copy()), -1, axis))

    return _result(np.moveaxis(out, -1, axis), (a,), run, op="softmax", saved_elements=out.size)


# ---------------------------------------------------------------------------
# Fused ops over users' interaction rows
# ---------------------------------------------------------------------------


def slot_order(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(user, target_row) of every slot of users owning the next lengths[i]
    interaction rows each: user i has one slot per step n = 0 ..
    lengths[i] - 2, the slot that reads its rows 0..n and predicts its row
    n + 1, the slot's target_row. Slots come step ascending, then users
    longest first, ties in user order: the order in which ``gru_scan`` and
    ``prefix_attention`` compute and return them."""
    lengths = np.asarray(lengths, dtype=np.intp)
    rows, live, _, _, users = _slots("slot_order", lengths.sum(), lengths)
    return np.broadcast_to(users, live.shape)[live], rows[live] + 1


def _slots(op: str, n_rows: int, lengths):
    """Longest-first slot layout shared by ``gru_scan`` and
    ``prefix_attention``.

    User i owns the next lengths[i] of the *n_rows* interaction rows,
    users in order, and has one slot per step n = 0 .. lengths[i] - 2:
    the slot that reads its rows 0..n and predicts its row n + 1. Users
    are taken longest first, ties in user order, so the users live at
    step n are a leading run of that order and a step's slots are a basic
    slice of the step-major packed order, the ops' output order. Returns
    (rows, live, counts, ats, users):

    * rows[n, j] is the j-th longest user's row at position n, the row its
      step n adds (0 where the user has no slot), and live[n, j] marks
      its slots; both are (steps, users of length >= 2);
    * counts[n] and ats[n] are step n's slot count and its offset in the
      packed order, as Python ints;
    * users[j] is the j-th longest user.
    """
    lengths = _run_lengths(op, lengths, n_rows, 0)
    steps = int(lengths.max()) - 1
    if steps < 1:
        raise ShapeError(f"{op}: no user has a proper prefix (length >= 2)")
    users = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths > 1)]
    step = np.arange(steps)[:, None]
    live = step < lengths[users] - 1
    rows = np.where(live, (np.cumsum(lengths) - lengths)[users] + step, 0)
    counts = np.count_nonzero(live, axis=1)
    ats = np.concatenate(([0], np.cumsum(counts)))
    return rows, live, counts.tolist(), ats.tolist(), users


def gru_scan(x: Tensor, rows, w_ih: Tensor, b_ih: Tensor, w_hh: Tensor, b_hh: Tensor,
             lengths) -> Tensor:
    """A gated recurrent cell over every user's interactions, as one node.

    Rows of *x* (P, k) are input rows; the op projects them to input-side
    gate preactivations xg = x @ w_ih + b_ih, in the column order
    [reset | update | candidate], each d_h wide. Interaction j reads row
    rows[j], and user i owns the next lengths[i] interactions. From h = 0,
    step n reads interaction n of each user longer than n + 1 and computes
    hg = h @ w_hh + b_hh, pre = xg_n + hg, r and z = sigmoid of pre's
    reset and update columns, c = tanh(xg_c + r * hg_c) and
    h = c + z * (h - c). The state after step n predicts the user's
    interaction n + 1, so a user's last one feeds no step. Returns the
    (n_slots, d_h) states in the order it computes them, ``slot_order``'s:
    step ascending, then users longest first. Its values and gradients
    agree with the per-user reference to float64 rounding, not bit for
    bit: the gates take sigmoid's tanh form, tanh(pre / 2) / 2 + 1 / 2,
    which lies in [0, 1] exactly.

    Users run longest first, so step n updates a leading slice of step
    n - 1's states and nothing is padded. The time loop runs only the
    recurrence. |h| <= 1, so no preactivation exceeds bound = max|xg read|
    + max|b_hh| + d_h * max|w_hh|; while 2 * bound is below the dtype's
    largest value nothing can overflow and the per-step finiteness checks
    are skipped, else each step checks its preactivations and an overflow
    raises naming the step. The forward writes each step's states into one
    (n_slots, d_h) array, and the node keeps only *x* and it, its output;
    its count is x.size + hs.size. Backward projects *x* again with the
    forward's expression, so xg repeats bit for bit, rebuilds every slot's
    previous state from the states, then hg, r, z, c and hg_c with one
    (n_slots, d_h) @ w_hh and a few elementwise ops. It runs backprop
    through time over them: it forms every slot's gate-derivative factors
    at once, frees what they no longer need, loops over the steps carrying
    only the state's gradient, then takes w_hh's and b_hh's gradients with
    one matmul and one sum. It scatter-adds the interactions' gradients
    into the rows of xg they read, as ``gather`` does, so a row no step
    reads gets zero gradient, and takes x's, w_ih's and b_ih's gradients
    from that table with two matmuls and one sum.
    """
    _check_dtypes("gru_scan", x, w_ih, b_ih, w_hh, b_hh)
    xd, wi, bi, w, bias = x.data, w_ih.data, b_ih.data, w_hh.data, b_hh.data
    if w.ndim != 2 or w.shape[1] != 3 * w.shape[0]:
        raise ShapeError(f"gru_scan: w_hh must be (d_h, 3*d_h), got {w.shape}")
    dh = w.shape[0]
    if (bias.shape != (3 * dh,) or bi.shape != (3 * dh,) or xd.ndim != 2
            or wi.shape != (xd.shape[1], 3 * dh)):
        raise ShapeError(f"gru_scan: x {xd.shape}, w_ih {wi.shape}, b_ih {bi.shape} and b_hh "
                         f"{bias.shape} do not fit w_hh {w.shape}")
    idx = _row_ids("gru_scan", rows, xd.shape[0])
    slot_rows, live, counts, ats, _ = _slots("gru_scan", idx.size, lengths)
    at_rows = idx[slot_rows[live]]      # table row each slot reads, step-major
    xs = (xd @ wi + bi)[at_rows]
    x_rz, x_c = xs[:, :2 * dh], xs[:, 2 * dh:]
    bound = (float(np.abs(xs).max(initial=0.0)) + float(np.abs(bias).max(initial=0.0))
             + dh * float(np.abs(w).max(initial=0.0)))
    check = not 2.0 * bound < float(np.finfo(xd.dtype).max)    # a NaN bound checks too
    hs = np.empty((at_rows.size, dh), dtype=xd.dtype)
    h = np.zeros((counts[0], dh), dtype=xd.dtype)
    for n, b in enumerate(counts):
        at, h_prev = ats[n], h[:b]
        hg = h_prev @ w + bias
        pre = x_rz[at:at + b] + hg[:, :2 * dh]
        if check and not np.isfinite(pre).all():
            raise NonFiniteError(f"gru_scan produced non-finite gate preactivations at step {n}")
        rz = np.tanh(0.5 * pre) * 0.5 + 0.5
        c = x_c[at:at + b] + rz[:, :dh] * hg[:, 2 * dh:]
        if check and not np.isfinite(c).all():
            raise NonFiniteError(f"gru_scan produced non-finite candidate preactivations at step {n}")
        c = np.tanh(c)
        h = hs[at:at + b]
        np.subtract(h_prev, c, out=h)       # c + z * (h_prev - c), in place
        h *= rz[:, dh:]
        h += c

    def run(g, acc):
        # slot ats[n] + j's state came from slot ats[n - 1] + j; step 0's from h = 0
        first = counts[0]
        prev = (np.asarray(ats[:-2], dtype=np.intp)[:, None] + np.arange(live.shape[1]))[live[1:]]
        h_prev = np.zeros_like(hs)
        h_prev[first:] = hs[prev]
        # the forward's projection, gates and candidates, every slot at once
        xg = xd @ wi + bi
        xs = xg[at_rows]
        hg = h_prev @ w
        hg += bias
        rz = xs[:, :2 * dh] + hg[:, :2 * dh]
        rz *= 0.5
        np.tanh(rz, out=rz)
        rz *= 0.5
        rz += 0.5
        hg_c = hg[:, 2 * dh:].copy()
        del hg
        c = rz[:, :dh] * hg_c
        c += xs[:, 2 * dh:]
        del xs
        np.tanh(c, out=c)
        r, z = rz[:, :dh].copy(), rz[:, dh:].copy()
        drz = rz * (1.0 - rz)
        del rz
        k1 = (1.0 - z) * (1.0 - c * c)
        # dhg = dh (x) k: the state's gradient times each gate block's factor
        k = np.concatenate((k1 * hg_c * drz[:, :dh], (h_prev - c) * drz[:, dh:], k1 * r),
                           axis=1).reshape(-1, 3, dh)
        del r, c, hg_c, drz
        dhs = g.copy()
        for n in range(len(counts) - 1, 0, -1):
            at, b, pa = ats[n], counts[n], ats[n - 1]
            d = dhs[at:at + b]
            dhs[pa:pa + b] += d * z[at:at + b] + (d[:, None] * k[at:at + b]).reshape(b, 3 * dh) @ w.T
        del z
        dhg = (dhs[:, None] * k).reshape(-1, 3 * dh)
        del k
        dw, db = h_prev[first:].T @ dhg[first:], dhg.sum(axis=0)
        del h_prev
        dhg[:, 2 * dh:] = dhs * k1      # the candidate's input side is not scaled by r
        del dhs, k1
        dxg = _scatter_rows(at_rows, dhg, xg)
        del dhg, xg
        acc(w_hh, dw)
        acc(b_hh, db)
        acc(b_ih, dxg.sum(axis=0))
        acc(x, dxg @ wi.T)
        acc(w_ih, xd.T @ dxg)

    return _result(hs, (x, w_ih, b_ih, w_hh, b_hh), run, saved=(x,), op="gru_scan",
                   saved_elements=hs.size)


def prefix_attention(x: Tensor, rows, wq: Tensor, wk: Tensor, wv: Tensor, w_pool: Tensor,
                     v_pool: Tensor, lengths) -> Tensor:
    """Causal self-attention plus additive pooling over every proper prefix
    of every user's history, as one node.

    Rows of *x* (P, k) are input rows; the op projects them to a (P,
    2*d_h + d) table qkv = x @ [wq | wk | wv], the query, key and value
    side by side, with one matmul against the three weights concatenated,
    as ``ce_block`` does; d and d_h are *w_pool*'s shape. Interaction j
    reads row rows[j] of the table, so interactions that share an input
    row share a projection; user i owns the next lengths[i] interactions.
    Position i of a user attends causally, to its positions j <= i only, as
    SAKT does (Pandey & Karypis 2019, arXiv:1907.06837): a = softmax over
    j <= i of q_i k_j / sqrt(d_h) and ctx_i = sum_j a_ij v_j, so a
    position's context does not depend on the prefix that holds it. Each
    position scores e_i = tanh(ctx_i @ w_pool) @ v_pool, and the user
    vector of a user's prefix of length n, 1 <= n < its length, is
    sum_{j<n} w_j ctx_j, with pooling weights w = softmax of e_0 ..
    e_{n-1}. Returns the (n_slots, d) user vectors in ``slot_order``:
    prefix length ascending, then users longest first.

    The B users with a proper prefix are laid out padded, (B, T) with
    T = max(lengths) - 1, and padded positions are zeroed. There is no
    loop: one batched matmul gives the (B, T, T) scores, a causal softmax
    turns them into a and ctx = a v, and the pooling of every prefix is a
    second causal softmax, row i over e_0 .. e_i for the prefix of length
    i + 1, applied by one (B, T, T) @ (B, T, d) matmul. Every row of both
    softmaxes is stabilised by its own maximum, so one code path is exact
    whatever the scale of v_pool. A live position reads only live
    positions, so padding changes no live value and a padded row, whose
    scores are 0, computes only finite values. A non-finite score that a
    prefix reads, at (i, j) with j <= i, raises naming prefix length
    i + 1, the shortest that reads it; scores above the diagonal are
    read by none and raise nothing.

    The node keeps only *x* and the index; its count is x.size. Backward
    projects *x* again with the forward's expression, so the table repeats
    bit for bit, gathers through *rows* again and recomputes the forward,
    as FlashAttention does (Dao et al. 2022, arXiv:2205.14135), then runs
    the chain back with batched matmuls. Both softmaxes' gradients are
    formed in place and the pooling's arrays are dropped before the
    attention's, so backward holds at most three (B, T, T) arrays at once.
    The q/k/v gradients are scatter-added to the table rows once, so a row
    several interactions read sums their gradients, and x's and the three
    weights' gradients come from that table with two matmuls. A user's
    last interaction is read by no prefix and passes no gradient.
    """
    ts = (x, wq, wk, wv, w_pool, v_pool)
    _check_dtypes("prefix_attention", *ts)
    xd, w_q, w_k, w_v, wp, vp = (t.data for t in ts)
    d, dh = wp.shape if wp.ndim == 2 else (0, 0)
    k = xd.shape[1] if xd.ndim == 2 else 0
    if (xd.ndim != 2 or dh == 0 or w_q.shape != (k, dh) or w_k.shape != (k, dh)
            or w_v.shape != (k, d) or vp.shape != (dh, 1)):
        raise ShapeError(f"prefix_attention: x {xd.shape}, wq/wk/wv {[t.shape for t in ts[1:4]]}, "
                         f"w_pool {wp.shape} and v_pool {vp.shape} must be (P, k), (k, d_h) twice "
                         f"and (k, d), (d, d_h) and (d_h, 1)")
    idx = _row_ids("prefix_attention", rows, xd.shape[0])
    slot_rows, live, _, _, _ = _slots("prefix_attention", idx.size, lengths)
    # padded (B, T) table rows, users longest first; live.T is step-major,
    # the output order
    pad_rows, live = idx[slot_rows.T], live.T
    above = np.triu(np.ones((live.shape[1],) * 2, dtype=bool), 1)      # key j > query i
    scale_qk = dh ** -0.5       # a Python float keeps float32 operands float32

    def attend(qkv):
        """The padded operands read from the projected table *qkv*, a, ctx,
        tanh(ctx @ w_pool) and the pooling weights of every position."""
        xp = qkv[pad_rows]
        xp[~live] = 0.0
        qs, kp, vpad = xp[..., :dh] * scale_qk, xp[..., dh:2 * dh], xp[..., 2 * dh:]
        # a score above the diagonal may overflow harmlessly, so the check
        # below, not a floating-point warning, reports an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            a = qs @ kp.transpose(0, 2, 1)
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a) & ~above
            if bad.any():
                raise NonFiniteError(f"prefix_attention produced non-finite attention scores "
                                     f"at prefix length {np.nonzero(bad)[1].min() + 1}")
        ctx = _softmax_last(a, above) @ vpad
        t = np.tanh(ctx.reshape(-1, d) @ wp)
        pw = np.empty_like(a)
        np.copyto(pw, (t @ vp).reshape(a.shape[0], 1, -1))     # pw[b, i, j] = e[b, j]
        return qs, kp, vpad, a, ctx, t, _softmax_last(pw, above)

    *_, ctx, _, pw = attend(xd @ np.concatenate((w_q, w_k, w_v), axis=1))
    out = (pw @ ctx).transpose(1, 0, 2)[live.T]

    def run(g, acc):
        # the forward's projection, then each expression follows the
        # backward of the primitive it fuses (matmul, softmax, tanh,
        # reshape, transpose, concat)
        w_qkv = np.concatenate((w_q, w_k, w_v), axis=1)
        qkv = xd @ w_qkv
        qs, kp, vpad, a, ctx, t, pw = attend(qkv)
        gu = np.zeros_like(ctx)
        gu.transpose(1, 0, 2)[live.T] = g
        dpw = gu @ ctx.transpose(0, 2, 1)
        dctx = pw.transpose(0, 2, 1) @ gu
        de = _softmax_last_backward(pw, dpw).sum(axis=1).reshape(-1, 1)     # e_j sums column j
        del pw, dpw
        dvp = t.T @ de
        dht = (de @ vp.T) * (1.0 - t * t)
        dwp = ctx.reshape(-1, d).T @ dht
        dctx += (dht @ wp.T).reshape(dctx.shape)
        dvpad = a.transpose(0, 2, 1) @ dctx
        ds = _softmax_last_backward(a, dctx @ vpad.transpose(0, 2, 1))
        del a
        dq, dk = (ds @ kp) * scale_qk, ds.transpose(0, 2, 1) @ qs
        dlive = np.concatenate((dq[live], dk[live], dvpad[live]), axis=1)
        dqkv = _scatter_rows(pad_rows[live], dlive, qkv)
        del qkv, dq, dk, dvpad, dlive
        acc(w_pool, dwp)
        acc(v_pool, dvp)
        acc(x, dqkv @ w_qkv.T)
        dw = xd.T @ dqkv
        acc(wq, dw[:, :dh])
        acc(wk, dw[:, dh:2 * dh])
        acc(wv, dw[:, 2 * dh:])

    return _result(out, ts, run, saved=(x,), op="prefix_attention")


# ---------------------------------------------------------------------------
# Fused content-encoder block
# ---------------------------------------------------------------------------


def _ce_block_rows(xd, qkv, probs, runs, w_o, w_1):
    """``ce_block``'s attended values a v, residual x1 = x + (a v) @ w_o
    and relu output relu(x1 @ w_1), from the q/k/v projection and the
    probabilities, computed the same way in its forward and backward."""
    d = xd.shape[1]
    attended = np.empty_like(xd)
    for (r0, b, n), a in zip(runs, probs):
        np.matmul(a, qkv[r0:r0 + b * n].reshape(b, n, 3 * d)[..., 2 * d:],
                  out=attended[r0:r0 + b * n].reshape(b, n, d))
    x1 = attended @ w_o
    x1 += xd
    h = x1 @ w_1
    np.maximum(h, 0.0, out=h)
    return attended, x1, h


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

    The node keeps only x and the attention probabilities (rebuilding
    those would cost the whole softmax). Backward recomputes the q/k/v
    projection, the attended values, x1 and the relu output from them with
    the weight arrays the forward read: the forward's own matmuls on the
    same shapes, three over the token rows and one per length run, so the
    values repeat the forward's bit for bit and a later replacement of a
    weight's ``data`` leaves the gradients alone. It frees each of them
    after its last use. The gradients are those of the per-op graph, up to
    the order of additions.
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
    lengths = _run_lengths("ce_block", lengths, xd.shape[0], 1)
    # (first row, items, length) of each run of consecutive equal lengths
    starts = np.flatnonzero(np.diff(lengths, prepend=0))
    row0 = np.concatenate(([0], np.cumsum(lengths)))
    runs = [(int(row0[s]), int(e - s), int(lengths[s]))
            for s, e in zip(starts, np.append(starts[1:], lengths.size))]
    scale_qk = d ** -0.5        # a Python float keeps float32 operands float32

    w_q, w_k, w_v, w_o, w_1, w_2 = (t.data for t in ts[1:])
    w_qkv = np.concatenate((w_q, w_k, w_v), axis=1)
    qkv = xd @ w_qkv
    probs = []
    for r0, b, n in runs:
        blk = qkv[r0:r0 + b * n].reshape(b, n, 3 * d)
        a = blk[..., :d] @ blk[..., d:2 * d].transpose(0, 2, 1)
        a *= scale_qk
        if not np.isfinite(a).all():
            raise NonFiniteError(f"ce_block produced non-finite attention scores at token "
                                 f"length {n}")
        probs.append(_softmax_last(a))
    _, x1, h = _ce_block_rows(xd, qkv, probs, runs, w_o, w_1)
    out = h @ w_2
    out += x1

    def run(g, acc):
        # the forward's expressions over the arrays it read, then each
        # expression follows the backward of the primitive it fuses
        # (matmul, softmax, scale, relu, add); each array is freed after
        # its last use
        w_qkv = np.concatenate((w_q, w_k, w_v), axis=1)
        qkv = xd @ w_qkv
        attended, x1, h = _ce_block_rows(xd, qkv, probs, runs, w_o, w_1)
        dpre = g @ w_2.T
        dpre *= h > 0
        acc(w_ff2, h.T @ g)
        del h
        acc(w_ff1, x1.T @ dpre)
        del x1
        dx1 = dpre @ w_1.T
        del dpre
        dx1 += g
        acc(wo, attended.T @ dx1)
        del attended
        dat = dx1 @ w_o.T
        dqkv = np.empty_like(qkv)
        for (r0, b, n), a in zip(runs, probs):
            blk = qkv[r0:r0 + b * n].reshape(b, n, 3 * d)
            dblk = dqkv[r0:r0 + b * n].reshape(b, n, 3 * d)
            gat = dat[r0:r0 + b * n].reshape(b, n, d)
            ds = gat @ blk[..., 2 * d:].transpose(0, 2, 1)
            _softmax_last_backward(a, ds)
            ds *= scale_qk
            np.matmul(ds, blk[..., d:2 * d], out=dblk[..., :d])
            np.matmul(ds.transpose(0, 2, 1), blk[..., :d], out=dblk[..., d:2 * d])
            np.matmul(a.transpose(0, 2, 1), gat, out=dblk[..., 2 * d:])
        del dat, qkv, blk, dblk, gat, ds
        dw = xd.T @ dqkv
        acc(wq, dw[:, :d])
        acc(wk, dw[:, d:2 * d])
        acc(wv, dw[:, 2 * d:])
        dx = dqkv @ w_qkv.T
        del dqkv
        dx += dx1
        acc(x, dx)

    saved = sum(a.size for a in probs)
    return _result(out, ts, run, saved=(x,), op="ce_block", saved_elements=saved)


def segment_mean(x: Tensor, lengths) -> Tensor:
    """Mean of each run of rows: item i owns the next lengths[i] rows of
    *x* (N, d), items in order; returns the (len(lengths), d) means."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_mean: x must be 2-D, got {x.shape}")
    lengths = _run_lengths("segment_mean", lengths, x.shape[0], 1)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def run(g, acc):
        acc(x, np.repeat(g / lengths.astype(g.dtype)[:, None], lengths, axis=0))

    return _result(np.add.reduceat(x.data, starts, axis=0) / lengths.astype(x.data.dtype)[:, None],
                   (x,), run, op="segment_mean")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def bce_loss(logits: Tensor, y: Tensor) -> Tensor:
    """Summed binary cross-entropy between sigmoid(logits) and labels y in
    {0, 1}.

    Each term is computed from the logit x in softplus form,
    max(x, 0) - y*x + log1p(exp(-|x|)), which is finite for every finite
    x, and its gradient sigmoid(x) - y is never clipped. Gradients flow to
    the logits only; the labels are data, a parent that takes none.
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

    return _result(np.asarray(terms.sum(), dtype=x.dtype), (logits, y), run,
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


def backward(loss: Tensor, grad: np.ndarray | None = None) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of *loss*, seeded with ``grad``.

    Without ``grad`` the seed is a scalar 1, so *loss* must be a scalar.
    A seed of *loss*'s shape is its cotangent dL/dloss for some scalar L
    outside the graph, so the result is the chain rule's dL/dleaf: the
    gradients of ``sum_all(mul(loss, Tensor(grad)))``, bit for bit. A seed
    of another shape is a ShapeError; the seed is copied, never written.

    Returns a map from every grad-enabled leaf reachable from *loss* to
    its gradient. The graph is consumed: saved activations are released
    and a second backward over any of its nodes raises
    ``GraphConsumedError``.
    """
    seed = np.ones((), loss.data.dtype) if grad is None else np.array(grad, loss.data.dtype)
    if seed.shape != loss.shape:
        raise ShapeError(f"backward: seed shape {seed.shape} for output shape {loss.shape}")
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

    grads: dict[int, np.ndarray] = {id(loss): seed}

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


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / (max|a| + max|b| + 1e-12), 0.0 for empty arrays, so a
    component far below both arrays' scale is not judged by its rounding."""
    if not a.size:
        return 0.0
    return float(np.abs(a - b).max()) / (float(np.abs(a).max() + np.abs(b).max()) + 1e-12)


def grad_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Compare reverse-mode gradients of scalar-valued ``f`` at ``x``
    against central finite differences.

    Returns their ``_rel_err``, the relative error ``training.max_rel_err``
    takes per tensor.
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

    return _rel_err(analytic, numeric)
