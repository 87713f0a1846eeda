"""Reverse-mode differentiation on a recorded tape of array primitives.

Every primitive stores its inputs, auxiliary constants, and output value, so
the tape can be walked backward with exact adjoints. Re-running a node's
forward rule on its recorded inputs gives its value bit for bit; the tests
check this with a replay helper over ``_FORWARD``. One tape holds one
forward; a walk backward leaves the tape as it was, so it may be walked
again, from the same seeds or others. A runtime pass walks each worker's
tape once, so that its comm log holds one forward and one backward.
Where no backward follows, an ``Evaluator``
runs the same recording calls through the same forward rules and keeps
nothing, so a forward is written once and yields the same bits either way.

Primitives: leaf, add, mul, concat, linear, silu, gather, segment_sum,
sum_rows, edge_vectors, edge_distances, edge_units, triplet_basis,
gaussian_rbf, triplet_contract, allreduce and boundary.

``add`` and ``mul`` broadcast as numpy does (a bias row, a column of row
scales), and their adjoints sum over the broadcast axes. A gather takes an
index array or, for a contiguous range of rows, a slice; a gather by slice
is a view of its input, so recorded values may alias each other. A gather
by a slice or by ``egn.graph.DistinctRows``, indices that never repeat,
assigns its adjoint into zeros where a general index scatters it with
``scatter_add``; both give the same bits.
Positions enter once, through ``edge_vectors`` (x_recv - x_src per edge),
whose adjoint is the one geometry adjoint that scatters into atoms.
Triplets are dense per-atom blocks in the layout of an
``egn.graph.TripletPlan``:

  * ``triplet_basis(units, plan, l_sbf)`` is T_l of each center atom's Gram
    block of out-edge unit vectors, ``units`` holding the rows O_J, with a
    zero diagonal: cos(l * angle) of its triplets; its adjoint writes each
    row of ``units`` once;
  * ``triplet_contract(blocks, c, plan)``, with ``c`` of L column blocks
    C_l in the order of the plan's in-edges, gives the rows O_j of each
    center atom j the product sum_l (block l of j) @ C_l[O_j], in rows
    local to the plan's out-edges O_J. Atoms of one degree form one batched
    matmul, taken whole: each atom owns its out-edge rows, so the in-edge
    blocks a bucket gathers are at most the rows of ``c``; the adjoint
    writes each row of ``c`` once.

``allreduce`` and ``boundary`` serve a worker that records its shard of a
model split across workers:

  * ``allreduce(x, total, rows, where)`` records ``total``, the sum over
    the workers of ``x`` placed at ``rows`` of a zero buffer of total's
    shape (or of ``x`` whole), summed by the caller; its adjoint is this
    worker's rows of the sum over the workers of their adjoints;
  * ``boundary(enter)`` takes no input and changes no number; its adjoint
    calls ``enter()``, so a worker's backward can book its time to the
    forward stage the boundary closed.

The backward is one walk, ``Tape.walk``, a generator that yields
``(adjoint, where)`` at each ``allreduce`` node and resumes with the sum
of that adjoint over the workers; ``Tape.backward`` drives it alone and
resumes with None: each adjoint is its own sum. A walk runs both kinds
of node even where no adjoint reached them, so all workers yield the
same collectives in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from . import graph as _graph


def silu(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), from e = exp(-|x|) <= 1, which never overflows.
    min(x, -x) is -|x| that keeps a NaN's sign bit, as exp does."""
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _silu_grad(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def scatter_add(idx: np.ndarray, x: np.ndarray, num: int) -> np.ndarray:
    """Sum the rows of ``x`` into ``num`` rows: ``out[idx[r]] += x[r]``.

    Returns float64 of shape ``(num,) + x.shape[1:]``. Rows are added in
    index order into zeros, so the result is bit-identical to ``np.add.at``
    into zeros; one ``np.bincount`` over the flattened ``idx * d + col``
    does it without ``add.at``'s per-element dispatch. An index outside
    ``[0, num)`` raises IndexError.
    """
    idx = np.asarray(idx, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    tail = x.shape[1:]
    if idx.shape != x.shape[:1]:
        raise ValueError(f"index shape {idx.shape} does not match {x.shape[0]} rows")
    if idx.size and idx.min() < 0:
        raise IndexError(f"scatter index out of range [0, {num})")
    d = math.prod(tail)
    flat = idx if d == 1 else (idx[:, None] * d + np.arange(d, dtype=np.int64)).ravel()
    out = np.bincount(flat, weights=x.ravel(), minlength=num * d)
    if out.shape[0] != num * d:  # bincount grows its output past the largest index
        raise IndexError(f"scatter index out of range [0, {num})")
    # bincount returns int64 for an empty index, even with weights.
    return out.astype(np.float64, copy=False).reshape((num,) + tail)


# Forward rules: fn(input_values, aux) -> value.
_FORWARD = {}
# Adjoint rules: fn(grad_out, input_values, value, aux) -> tuple of input grads.
_VJP = {}


def _op(name):
    def wrap(fns):
        fwd, vjp = fns
        _FORWARD[name] = fwd
        _VJP[name] = vjp
        return fns

    return wrap


_op("leaf")((lambda vals, aux: aux["value"], lambda g, vals, out, aux: ()))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """The adjoint of broadcasting an input of ``shape`` to ``g.shape``:
    ``g`` summed over the leading axes numpy added, then over the axes it
    stretched from length one."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


_op("add")(
    (
        lambda vals, aux: vals[0] + vals[1],
        lambda g, vals, out, aux: (_unbroadcast(g, vals[0].shape), _unbroadcast(g, vals[1].shape)),
    )
)

_op("mul")(
    (
        lambda vals, aux: vals[0] * vals[1],
        lambda g, vals, out, aux: (
            _unbroadcast(g * vals[1], vals[0].shape),
            _unbroadcast(g * vals[0], vals[1].shape),
        ),
    )
)


def _concat_fwd(vals, aux):
    return np.concatenate([vals[0], vals[1]], axis=1)


def _concat_vjp(g, vals, out, aux):
    split = vals[0].shape[1]
    return g[:, :split], g[:, split:]


_op("concat")((_concat_fwd, _concat_vjp))


def _linear_fwd(vals, aux):
    y = vals[0] @ vals[1].T
    if len(vals) == 3:
        y += vals[2]
    return y


def _linear_vjp(g, vals, out, aux):
    gx = g @ vals[1]
    gw = g.T @ vals[0]
    if len(vals) == 3:
        return gx, gw, g.sum(axis=0)
    return gx, gw


_op("linear")((_linear_fwd, _linear_vjp))

_op("silu")(
    (
        lambda vals, aux: silu(vals[0]),
        lambda g, vals, out, aux: (g * _silu_grad(vals[0]),),
    )
)


def _gather_fwd(vals, aux):
    return vals[0][aux["idx"]]


def _gather_vjp(g, vals, out, aux):
    rows = aux["idx"]
    if isinstance(rows, (slice, _graph.DistinctRows)):
        # Each row is written once; g + 0.0 has the bits of scatter_add's
        # sum into zeros, -0.0 included.
        grad = np.zeros_like(vals[0])
        grad[rows] = g + 0.0
        return (grad,)
    return (scatter_add(rows, g, vals[0].shape[0]),)


_op("gather")((_gather_fwd, _gather_vjp))


def _segment_sum_fwd(vals, aux):
    return scatter_add(aux["seg"], vals[0], aux["num"])


_op("segment_sum")(
    (
        _segment_sum_fwd,
        lambda g, vals, out, aux: (g[aux["seg"]],),
    )
)

_op("sum_rows")(
    (
        lambda vals, aux: vals[0].sum(axis=0, keepdims=True),
        lambda g, vals, out, aux: (np.broadcast_to(g, vals[0].shape).copy(),),
    )
)


def _edge_vectors_vjp(g, vals, out, aux):
    """+g at each edge's receiver, then -g at its source, as one scatter:
    the only geometry adjoint that writes into atoms."""
    src, recv = aux["src"], aux["recv"]
    return (scatter_add(np.concatenate([recv, src]), np.concatenate([g, -g]), vals[0].shape[0]),)


_op("edge_vectors")(
    (lambda vals, aux: _graph.edge_vectors(vals[0], aux["src"], aux["recv"]), _edge_vectors_vjp)
)

_op("edge_distances")(
    (
        lambda vals, aux: _graph.edge_distances(vals[0]),
        lambda g, vals, out, aux: (g[:, None] * (vals[0] / out[:, None]),),
    )
)


def _edge_units_vjp(g, vals, out, aux):
    proj = (g * out).sum(axis=1, keepdims=True)
    return ((g - proj * out) / _graph.edge_distances(vals[0])[:, None],)


_op("edge_units")(
    (lambda vals, aux: vals[0] / _graph.edge_distances(vals[0])[:, None], _edge_units_vjp)
)


def _triplet_basis_fwd(vals, aux):
    plan = aux["plan"]
    basis = _basis.angular_basis(_graph.gram_blocks(vals[0], plan), aux["l_sbf"])
    return _graph.zero_diagonals(basis, plan)


def _triplet_basis_vjp(g, vals, out, aux):
    """s = sum_l g_l T_l'(c) per block entry, then the Gram adjoint."""
    if out.shape[1] == 1:  # the one column is T_0, constant off the diagonal
        return (np.zeros_like(vals[0]),)
    # Column 1 is T_1, the cosine itself (zero on the diagonal, ignored there).
    s = np.einsum("rl,rl->r", g, _basis.angular_basis_dcos(out[:, 1], out.shape[1]))
    return (_graph.gram_gradient(s, vals[0], aux["plan"]),)


_op("triplet_basis")((_triplet_basis_fwd, _triplet_basis_vjp))


def _gaussian_rbf_fwd(vals, aux):
    return _basis.rbf_features(vals[0], aux["k_rbf"], aux["cutoff"])


def _gaussian_rbf_vjp(g, vals, out, aux):
    drad = _basis.rbf_features_ddist(vals[0], aux["k_rbf"], aux["cutoff"])
    return ((g * drad).sum(axis=1),)


_op("gaussian_rbf")((_gaussian_rbf_fwd, _gaussian_rbf_vjp))


def _triplet_contract_fwd(vals, aux):
    blocks, c = vals
    out = np.zeros((c.shape[0], c.shape[1] // blocks.shape[1]))
    for out_rows, rows in aux["plan"].buckets:
        t = blocks[rows].reshape(out_rows.shape + (-1,))
        out[out_rows] = t @ c[out_rows].reshape(t.shape[0], t.shape[2], -1)
    return out


def _triplet_contract_vjp(g, vals, out, aux):
    blocks, c = vals
    d_blocks = np.empty_like(blocks)
    d_c = np.zeros_like(c)
    for out_rows, rows in aux["plan"].buckets:
        t = blocks[rows].reshape(out_rows.shape + (-1,))
        in_blocks = c[out_rows].reshape(t.shape[0], t.shape[2], -1)
        g_out = g[out_rows]
        np.matmul(g_out, in_blocks.transpose(0, 2, 1), out=d_blocks[rows].reshape(t.shape))
        # Each local row is one atom's, so each row of d_c is written once.
        d_c[out_rows] = (t.transpose(0, 2, 1) @ g_out).reshape(out_rows.shape + (-1,))
    return d_blocks, d_c


_op("triplet_contract")((_triplet_contract_fwd, _triplet_contract_vjp))


# The walk hands the VJP the adjoint summed over the workers.
_op("allreduce")(
    (
        lambda vals, aux: aux["total"],
        lambda g, vals, out, aux: (g if aux["rows"] is None else g[aux["rows"]],),
    )
)

_NO_VALUE = np.zeros(0)


def _boundary_vjp(g, vals, out, aux):
    aux["enter"]()
    return ()


_op("boundary")((lambda vals, aux: _NO_VALUE, _boundary_vjp))
_ALWAYS_RUN = frozenset({"allreduce", "boundary"})


def run_alone(steps):
    """Run a generator that yields at each all-reduce and resumes with the
    sum, as the only worker: it resumes with None, which reads as "each
    buffer is its own sum". Returns the generator's return value."""
    try:
        while True:
            steps.send(None)
    except StopIteration as stop:
        return stop.value


@dataclass
class _Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray
    aux: dict


class Tape:
    """Records primitives during a forward pass. A walk backward reads the
    tape and changes nothing in it, so it can be walked any number of times."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def value(self, nid: int) -> np.ndarray:
        return self._nodes[nid].value

    def _record(self, op: str, inputs: tuple[int, ...], aux: dict) -> int:
        vals = [self._nodes[i].value for i in inputs]
        value = _FORWARD[op](vals, aux)
        self._nodes.append(_Node(op, inputs, value, aux))
        return len(self._nodes) - 1

    # -- recording API ------------------------------------------------

    def leaf(self, value: np.ndarray) -> int:
        arr = np.asarray(value, dtype=np.float64)
        return self._record("leaf", (), {"value": arr})

    def add(self, a: int, b: int) -> int:
        return self._record("add", (a, b), {})

    def mul(self, a: int, b: int) -> int:
        return self._record("mul", (a, b), {})

    def concat(self, a: int, b: int) -> int:
        return self._record("concat", (a, b), {})

    def linear(self, x: int, w: int, b: int | None = None) -> int:
        inputs = (x, w) if b is None else (x, w, b)
        return self._record("linear", inputs, {})

    def silu(self, x: int) -> int:
        return self._record("silu", (x,), {})

    def gather(self, x: int, idx: np.ndarray | slice) -> int:
        if not isinstance(idx, (slice, _graph.DistinctRows)):
            idx = np.asarray(idx, dtype=np.int64)
        return self._record("gather", (x,), {"idx": idx})

    def segment_sum(self, x: int, seg: np.ndarray, num: int) -> int:
        return self._record(
            "segment_sum", (x,), {"seg": np.asarray(seg, dtype=np.int64), "num": int(num)}
        )

    def sum_rows(self, x: int) -> int:
        return self._record("sum_rows", (x,), {})

    def edge_vectors(self, positions: int, src: np.ndarray, recv: np.ndarray) -> int:
        return self._record("edge_vectors", (positions,), {"src": src, "recv": recv})

    def edge_distances(self, vectors: int) -> int:
        return self._record("edge_distances", (vectors,), {})

    def edge_units(self, vectors: int) -> int:
        return self._record("edge_units", (vectors,), {})

    def triplet_basis(self, units: int, plan, l_sbf: int) -> int:
        return self._record("triplet_basis", (units,), {"plan": plan, "l_sbf": l_sbf})

    def gaussian_rbf(self, distances: int, k_rbf: int, cutoff: float) -> int:
        return self._record("gaussian_rbf", (distances,), {"k_rbf": k_rbf, "cutoff": cutoff})

    def triplet_contract(self, blocks: int, c: int, plan) -> int:
        return self._record("triplet_contract", (blocks, c), {"plan": plan})

    def allreduce(
        self, x: int, total: np.ndarray, rows: slice | None = None, where=None
    ) -> int:
        return self._record("allreduce", (x,), {"total": total, "rows": rows, "where": where})

    def boundary(self, enter) -> int:
        return self._record("boundary", (), {"enter": enter})

    # -- backward -----------------------------------------------------

    def walk(self, seeds: dict[int, np.ndarray]):
        """The backward walk, as a generator: accumulate adjoints for every
        node reachable from the seeds.

        ``seeds`` maps node id to the upstream gradient of that node's
        output. At each ``allreduce`` node the walk yields ``(g, where)``,
        the adjoint of the node's whole buffer and the label it was recorded
        with, and resumes with the sum of ``g`` over the workers, or with
        None where ``g`` is its own sum. It returns a per-node list in
        which only leaf entries hold gradients: a leaf's
        accumulated adjoint, or None where none flowed to it. Every non-leaf
        entry is None, since each non-leaf adjoint is dropped once its
        node's VJP has run; the walk then holds only the adjoints of its
        live frontier, not one per node of the tape. Accumulation runs in
        reverse recording order, which makes the result deterministic.
        Collective and boundary nodes run even where no gradient reached
        them, on a zero adjoint. The gradients may share memory with the
        seeds, the sums and each other, so treat them as read-only.
        """
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        for nid, seed in seeds.items():
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self._nodes[nid].value.shape:
                raise ValueError(
                    f"seed shape {seed.shape} does not match node {nid} "
                    f"value shape {self._nodes[nid].value.shape}"
                )
            grads[nid] = seed
        for nid in range(len(self._nodes) - 1, -1, -1):
            g = grads[nid]
            node = self._nodes[nid]
            if g is None and node.op in _ALWAYS_RUN:
                g = np.zeros_like(node.value)
            if g is None or node.op == "leaf":
                continue
            if node.op == "allreduce":
                total = yield g, node.aux["where"]
                if total is not None:
                    g = total
            vals = [self._nodes[i].value for i in node.inputs]
            input_grads = _VJP[node.op](g, vals, node.value, node.aux)
            grads[nid] = g = None
            for iid, ig in zip(node.inputs, input_grads):
                # Never accumulate in place: gradients may alias seeds,
                # each other and views of recorded values.
                grads[iid] = ig if grads[iid] is None else grads[iid] + ig
        return grads

    def backward(self, seeds: dict[int, np.ndarray]) -> list[np.ndarray | None]:
        """``walk(seeds)`` run alone: each all-reduced adjoint is its own sum."""
        return run_alone(self.walk(seeds))


class Evaluator(Tape):
    """A tape that records nothing: every handle is the primitive's value.

    The recording API and forward rules are those of ``Tape``, so values are
    bit-identical to a recorded pass; ``value(h)`` is ``h`` and there is no
    backward.
    """

    def value(self, nid: np.ndarray) -> np.ndarray:
        return nid

    def _record(self, op: str, inputs: tuple, aux: dict) -> np.ndarray:
        return _FORWARD[op](inputs, aux)

    def backward(self, seeds):
        raise RuntimeError("an Evaluator keeps no tape to differentiate; record on a Tape")
