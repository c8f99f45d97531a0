"""Parameter storage, initialization, the Adam optimizer, and small network blocks.

Parameters live in a ParamStore keyed by dotted names ("imputer.W1").  The
same store object is threaded through forward functions and the optimizer,
so every consumer sees one consistent set of values and gradients.
"""

from __future__ import annotations

import numpy as np

from . import pool
from .autodiff import ShapeError, Tensor, add_rowvec, as_tensor, constant, matmul, mul, relu


class ParamStore:
    """Named trainable matrices; a gradient is None until backward first reaches it."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.value.copy() for name, t in self._params.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        for name, v in values.items():
            t = self._params[name]
            if t.value.shape != v.shape:
                raise ShapeError(f"restore {name}: {t.value.shape} vs {v.shape}")
            t.value = v.copy()


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Symmetric uniform init scaled by the layer's fan sizes."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp2(store: ParamStore, prefix: str, dims: tuple[int, int, int],
              rng: np.random.Generator) -> None:
    """Two affine layers: dims = (input, hidden, output)."""
    a, h, b = dims
    store.add(f"{prefix}.W1", glorot(rng, a, h))
    store.add(f"{prefix}.b1", np.zeros((1, h)))
    store.add(f"{prefix}.W2", glorot(rng, h, b))
    store.add(f"{prefix}.b2", np.zeros((1, b)))


def apply_dropout(h: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """The one dropout rule: inverted dropout on the tape, zeroing each entry with
    probability rate and scaling the rest by 1/(1-rate).

    rate must lie in [0, 1); at rate 0, h is returned and nothing is drawn.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return h
    if rng is None:
        raise ValueError(f"dropout rate {rate} requires a generator")
    return mul(h, constant((rng.random(h.value.shape) >= rate) / (1.0 - rate)))


def mlp2_forward(store: ParamStore, prefix: str, X,
                 dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """ReLU(X·W1 + b1)·W2 + b2 on the tape.

    Dropout (apply_dropout, training only) follows the hidden activation.
    """
    h = relu(add_rowvec(matmul(as_tensor(X), store[f"{prefix}.W1"]), store[f"{prefix}.b1"]))
    return add_rowvec(matmul(apply_dropout(h, dropout, rng), store[f"{prefix}.W2"]),
                      store[f"{prefix}.b2"])


# ---------------------------------------------------------------------------
# optimization


# Adam's moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _adam_rows(name: str, value, g, m, v, a, b, steps) -> None:
    """Adam's update of these rows of one parameter into a, b scratch, m and v
    updated in place; steps = (lr, weight decay, 1 - β1^t, 1 - β2^t)."""
    lr, wd, m_corr, v_corr = steps
    if wd:
        g = np.add(g, np.multiply(wd, value, out=b), out=b)
    # m = β1·m + (1 − β1)·g;  v = β2·v + ((1 − β2)·g)·g
    np.multiply(m, ADAM_BETA1, out=m)
    m += np.multiply(1 - ADAM_BETA1, g, out=a)
    np.multiply(v, ADAM_BETA2, out=v)
    v += np.multiply(np.multiply(1 - ADAM_BETA2, g, out=a), g, out=a)
    # new = p − (lr·m̂) / (√v̂ + eps), g no longer needed
    np.multiply(lr, np.divide(m, m_corr, out=a), out=a)
    a /= np.add(np.sqrt(np.divide(v, v_corr, out=b), out=b), ADAM_EPS, out=b)
    np.subtract(value, a, out=a)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"non-finite update for parameter {name!r}")


class Optimizer:
    """Adam over a ParamStore, weight decay added to the gradient; a None grad
    counts as zero, and every grad is reset to None after each step.

    The moments m and v are updated in place.  Each parameter's update is
    computed in two scratch arrays allocated for that parameter and step (no
    buffer outlives the step), in the evaluation order of the textbook
    expression, so results are bit-identical to it; the new value is
    checked finite before the parameter is rebound to it.  A parameter of more
    than pool.ADAM_SPLIT entries is updated in two row halves, the second on
    an idle pool thread; the update is elementwise, so no bit changes.
    """

    def __init__(self, store: ParamStore, learning_rate: float, weight_decay: float = 0.0):
        for name, value in (("learning_rate", learning_rate), ("weight_decay", weight_decay)):
            if not value >= 0:
                raise ValueError(f"{name} {value} must be nonnegative")
        self.store = store
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._m = {name: np.zeros_like(t.value) for name, t in store.items()}
        self._v = {name: np.zeros_like(t.value) for name, t in store.items()}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        steps = (self.learning_rate, self.weight_decay,
                 1 - ADAM_BETA1 ** self._t, 1 - ADAM_BETA2 ** self._t)
        for name, p in self.store.items():
            m, v, value = self._m[name], self._v[name], p.value
            a, b = np.empty_like(value), np.empty_like(value)
            g = p.grad if p.grad is not None else np.zeros_like(value)
            if value.size <= pool.ADAM_SPLIT:
                _adam_rows(name, value, g, m, v, a, b, steps)
            else:
                pool.split_rows(lambda s: _adam_rows(name, value[s], g[s], m[s], v[s],
                                                     a[s], b[s], steps), len(value))
            p.value = a
        self.store.zero_grad()
