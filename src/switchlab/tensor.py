"""Minimal reverse-mode autodiff engine over float32/float64 numpy arrays.

Every op computes in the dtype of its data: float32 and float64 arrays are
kept as given, any other dtype becomes float64, and a Python or NumPy
scalar (or a raw array) mixed into ``add``/``mul`` takes its tensor
partner's dtype, so a float32 graph stays float32 end to end. Gradients
are held in the dtype of the data they belong to.

A ``Tensor`` is a value, its array ``data``, and it needs a grad exactly
when it has a tape node: a leaf gets one from ``requires_grad=True``, an
op's output when any of its inputs has one, and no tensor gets one later
(setting a grad on a tensor without a node, or running ``backward()``
from it, raises GraphError). An op whose inputs need grads records a
``Node`` on the tape: the output's grad, the op's backward closure, the
input nodes and the dtype, but no forward data. Each closure keeps only
the input nodes it sends grads to and the arrays its backward reads
(``matmul`` its operands, ``relu``, ``sigmoid`` and ``softmax_last``
their outputs, ``add`` and the shaping ops shapes alone), so an
activation that no backward reads dies as soon as the forward drops it.
Cheap arrays are formed again in the backward rather than kept from the
forward (selective recomputation): ``relu_mlp`` forms its hidden layer,
``expert_matmul`` an output gate's ungated results and
``attention_probs`` its biased queries; and a ``layer_norm`` output on
the tape carries a rebuild (``Node.rebuild``, passed on by ``reshape``),
which ``matmul``, ``relu_mlp`` and ``expert_matmul`` keep in place of the
array: the first backward that reads the output forms it again, with the
forward's bits, and the norm's own backward drops it.
``backward()`` on a scalar loss walks the nodes in reverse topological
order and frees the tape as it goes.
Four ops consume an OpCounter, each filing its cost under a term name
(see ``counter``): ``matmul`` (its MACs and, when stored, its output
floats, under ``term``, by default ``other``), ``relu_mlp`` (its two
GEMMs' MACs under ``mlp``), ``expert_matmul`` (the MACs of its expert
GEMMs, likewise, and of its gate multiply) and ``attention_probs`` (the
figures of the matmul and softmax chain it fuses, softmax output
included, under ``scores`` and ``pos_scores``). Everything
else is free in the MAC accounting convention used by the cost model;
explicit elementwise costs, such as a rotary rotation, are added by the
callers that need them.

Importing this module sets glibc's allocation policy so that the memory a
step frees stays with the process for the next step (``keep_freed_pages``).
"""

from __future__ import annotations

import ctypes
import itertools
import math
from typing import NamedTuple

import numpy as np

from .counter import NULL_COUNTER, OpCounter

# glibc's mallopt parameters (malloc.h) and the values set for them: every
# array of the lab's workloads (at most about 4 MB) stays below the mmap
# threshold, which the mallopt man page caps at 32 MiB on 64-bit hosts, and
# a step's freed activations (about 60 MB at most) stay below the trim
# threshold, which also bounds the free memory the process keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20
LN_EPS = 1e-5


def keep_freed_pages() -> bool:
    """Make glibc keep freed memory instead of returning it to the kernel.

    Each backward frees the step's activations, and by default glibc hands
    large blocks back (``munmap`` or a trim of the heap top), so the next
    step faults every page back in: thousands of minor faults per step,
    spread as kernel time over every op that allocates. Raising the mmap
    threshold serves the arrays from the heap, and raising the trim
    threshold keeps the freed heap top. Both are set, because setting
    either one turns off glibc's dynamic adjustment of the other (the trim
    threshold alone made the faults worse, the mmap threshold alone left
    them at the default's level). The trade-off: resident memory no longer
    falls after a peak, it stays ready for the next step. Returns whether
    both settings took; where there is no ``mallopt`` (a libc other than
    glibc) it does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


keep_freed_pages()


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (double backward, ...)."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != np.float32 and arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return arr


class Node:
    """A tensor's entry on the tape: what backward needs, and no forward data.

    ``grad`` is the tensor's gradient (None until a backward reaches it),
    ``backward`` the closure of the op that made the tensor (None for a
    leaf, and once run), ``inputs`` the nodes of that op's operands that
    need grads, in operand order, and ``dtype`` the dtype of the tensor's
    data, which its grad takes. A closure holds its input nodes and only
    the arrays its own backward reads, never an operand's value for its
    own sake, so an activation that no backward reads dies as soon as the
    forward drops it. ``spent`` marks the node of a loss that backward has
    run from. ``rebuild``, when set (see ``layer_norm``), forms the
    tensor's data again, the forward's bits, for a backward that reads it:
    an op keeps it in place of the array (``_kept``), so the array itself
    dies with the forward.
    """
    __slots__ = ("grad", "backward", "inputs", "dtype", "spent", "rebuild")

    def __init__(self, dtype, inputs=(), backward=None, rebuild=None):
        self.grad: np.ndarray | None = None
        self.backward = backward
        self.inputs = inputs
        self.dtype = dtype
        self.spent = False
        self.rebuild = rebuild

    def accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into this node's grad.

        ``fresh`` says that ``g`` was allocated by the calling backward (or
        is a view of the node grad it alone consumes), so the first use may
        adopt it; otherwise ``g`` may alias an upstream grad or be a
        broadcast view, and a copy is taken.
        """
        if self.grad is None:
            if fresh and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad += g


class Tensor:
    """A value, ``data``, and, when it needs a grad, its tape ``node``.

    Needing a grad is one fact, having a node (the module docstring says
    which tensors have one), so ``requires_grad`` reads ``node is not
    None``. The tape is made of nodes, which hold no forward data (see
    ``Node``). ``grad`` reads and writes the node's grad; setting a grad on
    a tensor without a node, or running ``backward()`` from one, raises
    GraphError. The node fixes the dtype the grad takes, so a cast is a new
    tensor (``Model.astype``), not a new ``data`` of another dtype.
    """
    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.node = Node(self.data.dtype) if requires_grad else None

    # -- helpers -----------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.node is None:
            if g is None:
                return
            raise GraphError("a tensor that needs no grad takes none")
        self.node.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss through the recorded graph."""
        if self.data.size != 1:
            raise GraphError("backward requires a scalar loss")
        root = self.node
        if root is None:
            raise GraphError("backward from a tensor that needs no grad")
        if root.spent:
            raise GraphError("backward called twice on the same graph")
        root.spent = True
        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, state = stack.pop()
            if state == 0:
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, 1))
                for child in node.inputs:
                    if id(child) not in visited:
                        stack.append((child, 0))
            else:
                topo.append(node)
        root.grad = np.ones_like(self.data)
        # free the tape as we go (a second backward needs a re-forward): a
        # spent node drops its closure, its inputs, its rebuild and, unless
        # it is a leaf, its grad, so the arrays a closure kept die as soon as
        # nothing upstream needs them
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
                node.grad = None
            node.backward = None
            node.inputs = ()
            node.rebuild = None

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)


def constant(values) -> Tensor:
    return Tensor(_as_array(values))


def _coerce(x, like: Tensor | None = None) -> Tensor:
    """Wrap a non-tensor operand; with ``like`` it takes that tensor's dtype.

    A wrapped Python or NumPy scalar is a 0-d float64 array, which NumPy's
    promotion rules treat as a strong type: uncoerced, ``mul(t, 0.5)`` or
    ``mul(t, cfg.scale())`` would lift a float32 graph to float64.
    """
    if isinstance(x, Tensor):
        return x
    arr = _as_array(x)
    if like is not None and arr.dtype != like.data.dtype:
        arr = arr.astype(like.data.dtype)
    return Tensor(arr)


def _binary(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, _coerce(b, a)
    b = _coerce(b)
    return _coerce(a, b), b


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over broadcast dimensions back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data, nodes, backward, rebuild=None) -> Tensor:
    """The op output ``data``; with its backward (and its ``rebuild``, see
    ``Node``) on the tape if any of the input ``nodes`` (None for an input
    that needs no grad) is live."""
    out = Tensor(data)
    inputs = tuple(n for n in nodes if n is not None)
    if inputs:
        out.node = Node(out.data.dtype, inputs, backward, rebuild)
    return out


def _kept(t: Tensor):
    """What a backward keeps to read ``t``'s data: its node's rebuild when
    it has one, else the array itself; ``_value`` reads either."""
    node = t.node
    return node.rebuild if node is not None and node.rebuild is not None else t.data


def _value(kept) -> np.ndarray:
    return kept() if callable(kept) else kept


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _binary(a, b)
    na, nb = a.node, b.node
    a_shape, b_shape = a.data.shape, b.data.shape

    def bw(g):
        # the add node drops g once this returns, so one operand may adopt
        # it; the other copies it (a broadcast operand's summed grad is new),
        # so no two tensors' grads share memory
        if na is not None:
            na.accum(_unbroadcast(g, a_shape), fresh=True)
        if nb is not None:
            gb = _unbroadcast(g, b_shape)
            nb.accum(gb, fresh=gb is not g or na is None)

    return _make(a.data + b.data, (na, nb), bw)


def mul(a, b) -> Tensor:
    a, b = _binary(a, b)
    na, nb = a.node, b.node
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand's grad reads the other operand, which is kept only then
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def bw(g):
        if na is not None:
            na.accum(_unbroadcast(g * bd, a_shape), fresh=True)
        if nb is not None:
            nb.accum(_unbroadcast(g * ad, b_shape), fresh=True)

    return _make(a.data * b.data, (na, nb), bw)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    nx = x.node

    def bw(g):
        # out > 0 exactly where x > 0, so the input need not be kept
        nx.accum(g * (out > 0), fresh=True)

    return _make(out, (nx,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # numerically stable in both tails: with e = exp(-|x|), 1 / (1 + e) for
    # x >= 0 and e / (1 + e) below
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0, e)
    out /= 1.0 + e
    nx = x.node

    def bw(g):
        nx.accum(g * out * (1.0 - out), fresh=True)

    return _make(out, (nx,), bw)


# -- matmul ---------------------------------------------------------------


def _matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.ndim == 2 and a.ndim > 2:
        # one GEMM over all leading rows instead of one per batch matrix
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return np.matmul(a, b)


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray, need_a: bool,
                  need_b: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The grads of ``a @ b`` (as ``_matmul_data`` forms it) for the upstream
    ``g``, each summed back to its operand's shape; None where not needed."""
    ga = gb = None
    if b.ndim == 2 and a.ndim > 2:
        g2 = g.reshape(-1, g.shape[-1])
        if need_a:
            ga = (g2 @ b.T).reshape(a.shape)
        if need_b:
            gb = a.reshape(-1, a.shape[-1]).T @ g2
        return ga, gb
    if need_a:
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
    if need_b:
        gb = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
    return ga, gb


def matmul(a: Tensor, b: Tensor, counter: OpCounter = NULL_COUNTER, *,
           store: bool = True, term: str = "other") -> Tensor:
    """Batched matrix product ``a @ b`` with broadcasting over leading dims.

    MAC count is prod(batch) * m * n * k; when ``store`` is set the output
    size is added to the stored-float count (training-mode accounting).
    Both count under ``term``. The backward keeps each operand's data, or
    its rebuild when it has one (``Node``).
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    data = _matmul_data(a.data, b.data)
    counter.add(term, macs=data.size * a.data.shape[-1], mem=data.size if store else 0)
    na, nb = a.node, b.node
    ka, kb = _kept(a), _kept(b)

    def bw(g):
        ga, gb = _matmul_grads(_value(ka), _value(kb), g, na is not None, nb is not None)
        if ga is not None:
            na.accum(ga, fresh=True)
        if gb is not None:
            nb.accum(gb, fresh=True)

    return _make(data, (na, nb), bw)


def relu_mlp(h: Tensor, w_up: Tensor, w_down: Tensor,
             counter: OpCounter = NULL_COUNTER) -> Tensor:
    """The dense MLP ``relu(h @ w_up) @ w_down`` as one op.

    The arithmetic is that of the chain matmul, relu, matmul, and so is the
    backward's, call for call, so the results agree bit for bit; but only
    ``h`` (or its rebuild, when h is a layer-norm output) and the weights
    are kept. The backward rebuilds the [..., d_ff] hidden from them, with
    the forward's GEMM, instead of holding it from the forward to the
    backward. The counter gets the chain's two ``mlp`` entries, with no
    stored floats (the convention stores none).
    """
    h, w_up, w_down = _coerce(h), _coerce(w_up), _coerce(w_down)
    if (h.ndim < 2 or w_up.ndim != 2 or w_down.ndim != 2 or h.shape[-1] != w_up.shape[0]
            or w_up.shape[1] != w_down.shape[0]):
        raise ShapeError(f"relu_mlp needs h [..., d], w_up [d, d_ff] and w_down [d_ff, d_out], "
                         f"got {h.shape}, {w_up.shape} and {w_down.shape}")
    ud, dd = w_up.data, w_down.data
    hidden = _matmul_data(h.data, ud)
    np.maximum(hidden, 0.0, out=hidden)
    counter.add("mlp", macs=hidden.size * h.shape[-1])
    data = _matmul_data(hidden, dd)
    counter.add("mlp", macs=data.size * dd.shape[0])
    nh, nup, ndown = h.node, w_up.node, w_down.node
    kh = _kept(h)

    def bw(g):
        hd = _value(kh)
        hidden = _matmul_data(hd, ud)
        np.maximum(hidden, 0.0, out=hidden)
        need_hidden = nh is not None or nup is not None
        g_hidden, g_down = _matmul_grads(hidden, dd, g, need_hidden, ndown is not None)
        if g_down is not None:
            ndown.accum(g_down, fresh=True)
        if need_hidden:
            g_hidden *= hidden > 0
            del hidden
            gh, gup = _matmul_grads(hd, ud, g_hidden, nh is not None, nup is not None)
            if gh is not None:
                nh.accum(gh, fresh=True)
            if gup is not None:
                nup.accum(gup, fresh=True)

    return _make(data, (nh, nup, ndown), bw)


# -- softmax / losses -----------------------------------------------------


def softmax_last(x: Tensor) -> Tensor:
    """Stable softmax over the last dimension."""
    x = _coerce(x)
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError("softmax_last requires a non-empty last dimension")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    out = ez / ez.sum(axis=-1, keepdims=True)
    nx = x.node

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        nx.accum(out * (g - dot), fresh=True)

    return _make(out, (nx,), bw)


def _fits(shape: tuple, target: tuple) -> bool:
    """Whether ``shape`` broadcasts to ``target`` without widening it."""
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def _rel_shift_view(a: np.ndarray, cache_len: int) -> np.ndarray:
    """Transformer-XL relative shift of a [..., T, 2S] distance-score table
    as a [..., T, S] strided view, S = cache_len + T.

    ``view[..., t, j] = a[..., t, cache_len + S - 1 + t - j]``: column c of
    ``a`` holds distance c - (S - 1). The view starts at last-axis offset
    cache_len + S - 1 and steps row + col per row and -col per column; its
    entries are distinct, so a write through it scatters without overlap.
    """
    T = a.shape[-2]
    S = cache_len + T
    *lead, row, col = a.strides
    return np.lib.stride_tricks.as_strided(
        a[..., cache_len + S - 1:], shape=a.shape[:-2] + (T, S),
        strides=(*lead, row + col, -col))


def attention_probs(q: Tensor, k: Tensor, scale: float, *,
                    mask: np.ndarray | None = None, u: Tensor | None = None,
                    v: Tensor | None = None, pos_r: Tensor | None = None,
                    cache_len: int = 0, counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Attention probabilities as one op: the last-axis softmax of
    ``scale * ((q + u) @ kᵀ + relshift((q + v) @ pos_r)) + mask``.

    ``q`` is [..., T, dh] and ``k`` is [..., S, dh]; their leading axes
    broadcast, so a [B, 1, S, dh] key head serves all H query heads.
    ``mask`` is an additive array that broadcasts to the [..., T, S]
    scores. The Transformer-XL terms come together or not at all: the
    content and position biases ``u`` and ``v`` broadcast to q's shape
    (a [H, 1, dh] bias per head), and with ``pos_r`` ([dh, 2S], shared by
    all heads, or [..., dh, 2S]), S = cache_len + T and score (t, j) gains
    the position score of distance cache_len + t - j: the [..., T, 2S]
    product ``(q + v) @ pos_r`` is read through the Transformer-XL relative
    shift (``_rel_shift_view``).

    The arithmetic and its order are those of the unfused chain of the two
    bias adds, matmul, shift, add, scale, mask add and ``softmax_last``, so
    the results agree bit for bit; but only the probabilities and the raw
    ``q`` are kept, and the backward forms the two biased queries again.
    It forms the softmax grad and scales it, sends it through
    (q + u) @ kᵀ to q, u and k, and writes it through the shifted view into
    a zeroed [..., T, 2S] buffer, which is the grad of the position product,
    sent on to q, v and pos_r. The counter gets the unfused chain's
    figures: the q @ kᵀ MACs with their output and the probabilities as
    stored floats under ``scores``, and the position product's MACs and
    output under the ``pos_scores`` extra.
    """
    if q.ndim < 2 or k.ndim < 2 or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention_probs needs q [..., T, dh] and k [..., S, dh], "
                         f"got {q.shape} and {k.shape}")
    T, S = q.shape[-2], k.shape[-2]
    xl = pos_r is not None
    if len({u is None, v is None, pos_r is None}) > 1:
        raise ShapeError("attention_probs needs u, v and pos_r together, or none of them")
    if xl and (cache_len < 0 or S != cache_len + T or pos_r.ndim < 2
               or pos_r.shape[-2:] != (q.shape[-1], 2 * S)
               or not all(_fits(b.shape, q.shape) for b in (u, v))):
        raise ShapeError(f"relative positions need u and v that broadcast to q {q.shape} and "
                         f"pos_r [..., {q.shape[-1]}, 2*(cache_len + T)] with S = cache_len "
                         f"+ T = {S} keys, got {u.shape}, {v.shape} and {pos_r.shape} with "
                         f"cache_len={cache_len}")
    qd, kt = q.data, np.swapaxes(k.data, -1, -2)
    nq, nk, nu, nv, npr = q.node, k.node, None, None, None
    if xl:
        ud, vd, prd = u.data, v.data, pos_r.data
        data = _matmul_data(qd + ud, kt)
        p = _matmul_data(qd + vd, prd)
        counter.add("pos_scores", macs=p.size * q.shape[-1], mem=p.size)
        data += _rel_shift_view(p, cache_len)
        p_shape = p.shape
        del p
        nu, nv, npr = u.node, v.node, pos_r.node
    else:
        data = _matmul_data(qd, kt)
    scale = data.dtype.type(scale)
    data *= scale
    if mask is not None:
        mask = np.asarray(mask, dtype=data.dtype)
        if not _fits(mask.shape, data.shape):
            raise ShapeError(f"mask {mask.shape} does not broadcast to scores {data.shape}")
        data += mask
    data -= data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)
    counter.add("scores", macs=data.size * q.shape[-1], mem=2 * data.size)

    def to_bias(nb, gb, shape):
        # as add sends a broadcast operand its grad: summed, or copied if
        # the sum left the query's grad itself
        g = _unbroadcast(gb, shape)
        nb.accum(g, fresh=g is not gb or nq is None)

    def bw(g):
        # the node's grad is its own (see Node.accum), so the softmax
        # grad is formed in it
        dot = (g * data).sum(axis=-1, keepdims=True)
        g -= dot
        g *= data
        g *= scale
        gpq = None
        if xl and (nq is not None or nv is not None or npr is not None):
            full = np.zeros(p_shape, dtype=g.dtype)
            _rel_shift_view(full, cache_len)[...] = g
            gpq, gpr = _matmul_grads(qd + vd, prd, full, nq is not None or nv is not None,
                                     npr is not None)
            del full
            if gpr is not None:
                npr.accum(gpr, fresh=True)
            if nv is not None:
                to_bias(nv, gpq, vd.shape)
        gq, gkt = _matmul_grads(qd + ud if xl else qd, kt, g,
                                nq is not None or nu is not None, nk is not None)
        if nu is not None:
            to_bias(nu, gq, ud.shape)
        if nq is not None:
            nq.accum(gq, fresh=True)
            if gpq is not None:
                nq.accum(gpq, fresh=True)
        if gkt is not None:
            nk.accum(np.swapaxes(gkt, -1, -2), fresh=True)

    return _make(data, (nq, nk, nu, nv, npr), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape [..., V]; ``targets`` the matching leading shape.
    """
    targets = np.asarray(targets)
    lead = logits.data.shape[:-1]
    if targets.shape != lead:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.data.shape}")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    tgt_logit = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    nll = lse - tgt_logit
    count = nll.size
    nl = logits.node

    def bw(g):
        p = np.exp(z - lse[..., None])
        # each position has exactly one target: subtract 1 there
        tgt = targets[..., None]
        np.put_along_axis(p, tgt, np.take_along_axis(p, tgt, axis=-1) - 1.0, axis=-1)
        p *= float(g) / count
        nl.accum(p, fresh=True)

    return _make(np.asarray(nll.mean()), (nl,), bw)


# -- reductions / shaping -------------------------------------------------


def tsum(x: Tensor, axis=None) -> Tensor:
    data = x.data.sum(axis=axis)
    nx, shape = x.node, x.data.shape

    def bw(g):
        nx.accum(np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape))

    return _make(data, (nx,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    """``x``'s data in ``shape``; a rebuild of x (see ``Node``) passes on,
    reshaped, to the output."""
    old, nx = x.data.shape, x.node
    src = None if nx is None else nx.rebuild

    def bw(g):
        nx.accum(g.reshape(old), fresh=True)

    def rebuild():
        return src().reshape(shape)

    return _make(x.data.reshape(shape), (nx,), bw, None if src is None else rebuild)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    inv, nx = np.argsort(axes), x.node

    def bw(g):
        nx.accum(g.transpose(inv), fresh=True)

    return _make(x.data.transpose(axes), (nx,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    nodes = [t.node for t in tensors]
    offsets = list(itertools.accumulate((t.data.shape[axis] for t in tensors), initial=0))

    def bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                n.accum(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), nodes, bw)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Index the first axis with an integer array (embedding / expert pick).

    The backward is a sort-based segment sum: the upstream rows are sorted
    by index and each run of equal indices is summed by ``np.add.reduceat``.
    """
    idx = np.asarray(idx)
    nx, shape = x.node, x.data.shape

    def bw(g):
        flat_idx = idx.reshape(-1)
        full = np.zeros(shape, dtype=nx.dtype)
        if flat_idx.size:
            order = np.argsort(flat_idx, kind="stable")
            ranked = flat_idx[order]
            starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            flat_g = g.reshape((-1,) + shape[1:])[order]
            full[ranked[starts]] = np.add.reduceat(flat_g, starts, axis=0)
        nx.accum(full, fresh=True)

    return _make(x.data[idx], (nx,), bw)


def _flat_index(shape: tuple, idx: np.ndarray) -> np.ndarray:
    """The flat offsets in a C-ordered array of ``shape`` of the entries
    that ``idx`` picks along its last axis, row by row."""
    offsets = np.arange(math.prod(shape[:-1])) * shape[-1]
    try:
        flat = offsets.reshape(shape[:-1] + (1,)) + idx
    except ValueError:
        flat = None
    if flat is None or flat.shape[:-1] != shape[:-1]:
        raise ShapeError(f"take_last indices {idx.shape} do not broadcast to rows {shape[:-1]}")
    return flat


def take_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis; ``idx`` broadcasts against x[..., :].

    The gather reads the flattened x at each row's offset plus the index.
    The indices must lie in [0, n) and be distinct within a row, as top-k
    indices are, so the backward writes ``g`` straight into zeros; any
    other index raises ShapeError.
    """
    idx = np.asarray(idx)
    n = x.shape[-1]
    # rows in ascending order, as top-k gives them, are distinct; only other
    # rows pay for NumPy's per-row sort
    if not (idx[..., 1:] > idx[..., :-1]).all():
        ranked = np.sort(idx, axis=-1)
        if (ranked[..., 1:] == ranked[..., :-1]).any():
            raise ShapeError("take_last indices must be distinct within a row")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take_last index out of range [0, {n})")
    data = x.data.reshape(-1).take(_flat_index(x.shape, idx))
    nx, shape = x.node, x.data.shape

    def bw(g):
        # the offsets are formed again rather than kept from the forward
        full = np.zeros(math.prod(shape), dtype=nx.dtype)
        full[_flat_index(shape, idx)] = g
        nx.accum(full.reshape(shape), fresh=True)

    return _make(data, (nx,), bw)


def _stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Stable argsort of integer keys in [0, n_keys); keys that fit 16 bits
    take NumPy's radix sort, about ten times faster than its merge sort."""
    if n_keys <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


class ExpertRows(NamedTuple):
    """One side of a dispatch: where each assignment's row lies on it.

    ``rows`` [A] is the side's row of each assignment, in expert order, and
    ``n`` the side's row count. ``slots`` [m, n] gives, slot by slot, the
    expert-order position of the assignment in slot i of each of the side's
    n rows, so a row's sum runs over its m slots in order. A side whose
    rows are each read by one assignment at most (``ExpertPlan.own_rows``)
    has no slot table: ``slots`` is None, and it serves as a source only.
    """
    rows: np.ndarray
    slots: np.ndarray | None
    n: int


class ExpertPlan:
    """One routing decision's A = N*a assignments, sorted by expert once.

    The decision routes each of N rows ([..., T] leading axes) to ``a``
    experts; its expert ids ``eid`` [..., T, a] are read in that natural
    (row, slot) order. ``order`` lists the assignments in stable expert
    order, ``inverse`` gives each assignment's position in it, and
    ``segments`` holds the (expert, lo, hi) range of every expert that has
    assignments. Every ``expert_matmul`` of the decision, and its backward,
    reuses the one sort; ``rows`` and ``own_rows`` derive (and keep) the
    row layouts.
    """
    __slots__ = ("shape", "n_experts", "order", "inverse", "segments", "_sides")

    def __init__(self, eid: np.ndarray, n_experts: int):
        eid = np.asarray(eid)
        if eid.ndim < 2 or eid.size == 0:
            raise ShapeError(f"expert ids must be a non-empty [..., T, a] array, got {eid.shape}")
        flat = eid.reshape(-1)
        if flat.min() < 0 or flat.max() >= n_experts:
            raise ShapeError(f"expert index out of range [0, {n_experts})")
        self.shape, self.n_experts = eid.shape, n_experts
        self.order = _stable_order(flat, n_experts)
        self.inverse = np.empty_like(self.order)
        self.inverse[self.order] = np.arange(flat.size)
        self.segments, lo = [], 0
        for e, c in enumerate(np.bincount(flat, minlength=n_experts).tolist()):
            if c:
                self.segments.append((e, lo, lo + c))
                lo += c
        self._sides = {}

    def rows(self, n_groups: int = 1) -> ExpertRows:
        """The [B, n_groups, T] row layout in which slot j of row (b, t)
        belongs to row (b, j // m, t), with m = a / n_groups slots per row.

        One group is the N token rows, each holding its a slots; n_groups
        heads are head-major rows, each holding m consecutive slots. Each
        layout is derived once per plan and kept.
        """
        side = self._sides.get(n_groups)
        if side is None:
            T, a = self.shape[-2:]
            if n_groups < 1 or a % n_groups:
                raise ShapeError(f"{a} slots do not split into {n_groups} equal groups")
            m = a // n_groups
            slots = (self.inverse.reshape(-1, T, n_groups, m)
                     .transpose(3, 0, 2, 1).reshape(m, -1))
            rows = np.empty_like(self.order)
            rows[slots] = np.arange(slots.shape[1])
            side = self._sides[n_groups] = ExpertRows(rows, slots, slots.shape[1])
        return side

    def own_rows(self) -> ExpertRows:
        """The [B, n_experts, T] row layout in which each assignment of row
        (b, t) reads row (b, e, t) of its own expert e (head gating: the
        experts are the heads). A token's experts are distinct, so each row
        is read once at most and the layout has no slot table; a token that
        names one expert twice raises ShapeError. Derived once and kept.
        """
        side = self._sides.get("own")
        if side is None:
            T, a = self.shape[-2:]
            E = self.n_experts
            token = self.order // a
            expert = np.repeat([e for e, _, _ in self.segments],
                               [hi - lo for _, lo, hi in self.segments])
            rows = (token // T * E + expert) * T + token % T
            # the stable sort keeps an expert's tokens ascending, so a
            # repeated (token, expert) pair is two equal neighbouring rows
            if (rows[1:] == rows[:-1]).any():
                raise ShapeError("own-expert rows need distinct experts per token")
            side = self._sides["own"] = ExpertRows(rows, None, self.order.size // a * E)
        return side


def _combine(vals: np.ndarray, slots: np.ndarray,
             w: np.ndarray | None = None) -> np.ndarray:
    """out[r] = the sum over i, in order, of w[p] * vals[p], p = slots[i, r].

    One slot's rows are gathered at a time, so no [A, d] copy is made.
    """
    out = None
    for s in slots:
        part = vals.take(s, axis=0)
        if w is not None:
            part *= w.take(s)[:, None]
        if out is None:
            out = part
        else:
            out += part
    return out


def expert_matmul(x: Tensor, bank: Tensor, plan: ExpertPlan, src: ExpertRows | None,
                  dst: ExpertRows | None, counter: OpCounter = NULL_COUNTER, *,
                  gate: Tensor | None = None, term: str = "other",
                  gate_term: str | None = None) -> Tensor:
    """Gated expert dispatch of one plan: each assignment a of the plan
    adds gate[a] * x[its src row] @ bank[its expert] to its dst row.

    ``x`` is [n_in, d_in] and ``bank`` is [E, d_in, d_out], E the plan's
    expert count. ``src`` and ``dst`` are layouts of the plan (``rows``):
    x holds the rows ``src`` names, and the result is [n_out, d_out], the
    rows ``dst`` names, each the sum of its assignments in slot order. A
    side of None is the plan's expert order itself, one row per
    assignment: x rows already in that order, or results left in it
    unsummed (the sigma-MoE hidden layer). A source without slots
    (``own_rows``) reads each x row once at most, so its x grad is
    written straight into zeros at those rows. ``gate`` (optional) holds the A
    gates in the plan's natural [..., T, a] order. A gated sum has one
    value whichever side the gate scales, so it scales the narrower one:
    the gathered x rows when d_in <= d_out, the GEMM results otherwise.
    Each expert runs one GEMM over its contiguous range of the gathered
    rows. Backward is hand-written for x, bank and gate and runs one
    expert at a time; it keeps no forward temporary, only x's data (or
    its rebuild, when x is a reshaped layer-norm output): the x rows are
    gathered again, and the ungated results that an output gate's grad
    reads are formed again from them, one expert's GEMM at a time. MACs are
    A*d_in*d_out under ``term`` and the gate multiply's A*min(d_in, d_out)
    under ``gate_term`` (None: ``term``); the stored floats are left to the
    caller, whose cost accounting names them.
    """
    if x.ndim != 2 or bank.ndim != 3 or x.shape[1] != bank.shape[1]:
        raise ShapeError(f"expert_matmul needs x [n, d_in] and bank [E, d_in, d_out], "
                         f"got {x.shape} and {bank.shape}")
    E, d_in, d_out = bank.shape
    A = plan.order.size
    if E != plan.n_experts:
        raise ShapeError(f"a bank of {E} experts for a plan over {plan.n_experts}")
    if x.shape[0] != (A if src is None else src.n):
        raise ShapeError(f"x has {x.shape[0]} rows, the plan's source side another number")
    if dst is not None and dst.slots is None:
        raise ShapeError("a layout without slots is a source side only")
    if gate is not None and gate.size != A:
        raise ShapeError(f"{gate.size} gates for {A} assignments")
    w = None if gate is None else gate.data.reshape(-1).take(plan.order)
    gate_in = w is not None and d_in <= d_out
    gate_out = w is not None and d_in > d_out
    bd = bank.data
    nx, nbank = x.node, bank.node
    ngate, gate_shape = (None, None) if gate is None else (gate.node, gate.shape)

    def rows_of(xd: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # the rows of x's data xd of the assignments lo:hi in expert order:
        # a fresh array, or a view of xd (the forward takes them all at
        # once: one gather per expert made evaluation slower and no peak
        # lower)
        return xd[lo:hi] if src is None else xd.take(src.rows[lo:hi], axis=0)

    xs = rows_of(x.data, 0, A)
    if gate_in:
        xs = xs * w[:, None] if src is None else np.multiply(xs, w[:, None], out=xs)
    ys = np.empty((A, d_out), dtype=np.result_type(x.data, bd))
    for e, lo, hi in plan.segments:
        np.matmul(xs[lo:hi], bd[e], out=ys[lo:hi])
    del xs                     # before the combine allocates
    if dst is not None:
        data = _combine(ys, dst.slots, w if gate_out else None)
    else:
        data = ys * w[:, None] if gate_out else ys
    counter.add(term, macs=A * d_in * d_out)
    if w is not None:
        counter.add(gate_term or term, macs=A * min(d_in, d_out))
    # nothing from the forward is kept (x rows are gathered again from x's
    # data, or its rebuild, and an output gate's ungated results formed
    # again from them), and of the plan only what the backward reads
    segments, inverse = plan.segments, plan.inverse
    dst_rows = None if dst is None else dst.rows
    kx = _kept(x)

    def bw(g):
        # one expert at a time: its grad rows, x rows and GEMMs, so the
        # only [A, d] array made is the x grad in expert order, which the
        # combine reads slot by slot across experts
        need_xs = nbank is not None or ngate is not None
        need_gx = nx is not None or (gate_in and ngate is not None)
        gbank = None if nbank is None else np.zeros_like(bd)
        gxs = None if nx is None else np.empty((A, d_in), dtype=g.dtype)
        ggate = None if ngate is None else np.empty(A, dtype=ngate.dtype)
        xd = _value(kx) if need_xs else None
        for e, lo, hi in segments:
            wl = None if w is None else w[lo:hi, None]
            gs = g[lo:hi] if dst_rows is None else g.take(dst_rows[lo:hi], axis=0)
            xs = rows_of(xd, lo, hi) if need_xs else None
            if gate_out:
                if ngate is not None:
                    # the ungated results, with the forward's GEMM
                    ggate[lo:hi] = np.einsum("ad,ad->a", gs, np.matmul(xs, bd[e]))
                gs = gs * wl if dst_rows is None else np.multiply(gs, wl, out=gs)
            if nbank is not None:
                np.matmul((xs * wl if gate_in else xs).T, gs, out=gbank[e])
            if need_gx:
                gx = np.matmul(gs, bd[e].T, out=None if gxs is None else gxs[lo:hi])
                if gate_in:
                    if ngate is not None:
                        ggate[lo:hi] = np.einsum("ad,ad->a", gx, xs)
                    gx *= wl
            del gs, xs         # before the next expert's rows are gathered
        if gbank is not None:
            nbank.accum(gbank, fresh=True)
        if gxs is not None:
            if src is None:
                gx = gxs
            elif src.slots is None:
                gx = np.zeros((src.n, d_in), dtype=gxs.dtype)
                gx[src.rows] = gxs
            else:
                gx = _combine(gxs, src.slots)
            nx.accum(gx, fresh=True)
        if ggate is not None:
            ngate.accum(ggate.take(inverse).reshape(gate_shape), fresh=True)

    return _make(data, (nx, nbank, ngate), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last dimension, with ``LN_EPS`` added to
    the variance.

    The rows are normalised as one [rows, n] matrix: the row mean is a GEMV
    against a 1/n vector, the variance a row dot of the centred rows, and
    the centred rows are scaled in place. Only the normalised rows ``xhat``
    and the inverse deviations ``inv`` are kept for the backward, which
    takes two column reductions (gain and bias grads, GEMVs against ones)
    and two row reductions (the x grad's mean terms).

    The output is not kept: on the tape it carries a rebuild (``Node``)
    that forms ``xhat * gain + bias`` again with the forward's operations,
    so with its bits. The first backward that reads the output forms it,
    every later one reads the same array, and this op's own backward,
    which runs after all of them, drops it.
    """
    shape, n = x.data.shape, x.data.shape[-1]
    x2 = x.data.reshape(-1, n)
    mean_w = np.full(n, 1.0 / n, dtype=x2.dtype)
    xhat = x2 - (x2 @ mean_w)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / n + LN_EPS))[:, None]
    xhat *= inv
    gd, bd = gain.data, bias.data
    out = xhat * gd
    out += bd
    nx, ngain, nbias = x.node, gain.node, bias.node
    memo = None

    def rebuild():
        nonlocal memo
        if memo is None:
            memo = xhat * gd
            memo += bd
            memo = memo.reshape(shape)
        return memo

    def bw(g):
        nonlocal memo
        memo = None                    # every backward that reads it has run
        g2 = g.reshape(-1, n)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        if ngain is not None:
            ngain.accum(ones @ (g2 * xhat), fresh=True)
        if nbias is not None:
            nbias.accum(ones @ g2, fresh=True)
        if nx is not None:
            # dx = inv * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gain
            gx = g2 * gd
            t1 = (gx @ mean_w)[:, None]
            t2 = (np.einsum("ij,ij->i", gx, xhat) / n)[:, None]
            gx -= xhat * t2
            gx -= t1
            gx *= inv
            nx.accum(gx.reshape(shape), fresh=True)

    return _make(out.reshape(shape), (nx, ngain, nbias), bw, rebuild)


# -- routing helpers ------------------------------------------------------


def argtopk_rows(arr: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k largest values of each row (last axis), ties
    to the lowest index, in ascending order."""
    if k < 1 or k > arr.shape[-1]:
        raise ValueError(f"argtopk requires 1 <= k <= {arr.shape[-1]}, got k={k}")
    order = (-arr).argsort(axis=-1, kind="stable")[..., :k]
    return np.sort(order, axis=-1)
