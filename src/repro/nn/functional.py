"""Numerically-stable functional primitives used across the NN substrate.

The hot-path kernels call ufuncs and their ``.reduce`` directly: ``np.max``
/ ``np.sum`` / ``np.clip`` run the same loops behind a Python wrapper whose
call overhead, at this model size, rivals the arithmetic.  Each works in the
temporaries it allocated, in its formula's operation order, so values are
bitwise the out-of-place expression's.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability; ``x`` is left alone."""
    # A float buffer of the dtype np.exp would pick, so integer input still works in place.
    shifted = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), dtype=np.result_type(x, np.float16))
    return _normalised_exp(shifted, axis)


def softmax_in_place(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`softmax` of the float array ``x``, written over ``x`` and returned.

    For a buffer the caller owns and no longer needs, such as the attention
    scores a matmul just returned: it saves softmax's second array of the
    same size, and the values are bitwise ``softmax(x)``.
    """
    x -= np.maximum.reduce(x, axis=axis, keepdims=True)
    return _normalised_exp(x, axis)


def _normalised_exp(shifted: np.ndarray, axis: int) -> np.ndarray:
    """``exp(shifted)`` divided by its sum along ``axis``, in place."""
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def entropy(probabilities: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Shannon entropy of a probability distribution (natural log).

    Used by the typical-acceptance criterion (paper eq. 1), where the
    acceptance threshold is scaled by ``exp(-H(p_base))``.
    """
    # np.clip's two ufuncs in its order (maximum, then minimum), on one buffer.
    terms = np.maximum(probabilities, eps)
    np.minimum(terms, 1.0, out=terms)
    np.log(terms, out=terms)
    terms *= probabilities
    return -np.add.reduce(terms, axis=axis)


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ignore_index: Optional[int] = None
) -> Tuple[float, np.ndarray, int]:
    """Token-level cross-entropy loss.

    Args:
        logits: array of shape ``(N, vocab)``.
        targets: integer array of shape ``(N,)``.
        ignore_index: target value excluded from the loss (the paper's
            ``[IGNORE]`` token id).

    Returns:
        ``(loss, probabilities, count)`` where ``loss`` is the mean negative
        log-likelihood over non-ignored positions, ``probabilities`` is the
        softmax of the logits (needed for the backward pass) and ``count`` is
        the number of positions that contributed to the loss.
    """
    probabilities = softmax(logits, axis=-1)
    n = logits.shape[0]
    if ignore_index is not None:
        mask = targets != ignore_index
    else:
        mask = np.ones(n, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        return 0.0, probabilities, 0
    safe_targets = np.where(mask, targets, 0)
    picked = probabilities[np.arange(n), safe_targets]
    log_likelihood = np.log(np.clip(picked, 1e-12, 1.0))
    loss = -float(np.sum(log_likelihood * mask)) / count
    return loss, probabilities, count


def cross_entropy_grad(
    probabilities: np.ndarray, targets: np.ndarray, ignore_index: Optional[int] = None
) -> np.ndarray:
    """Gradient of :func:`cross_entropy` with respect to the logits."""
    n, _ = probabilities.shape
    if ignore_index is not None:
        mask = targets != ignore_index
    else:
        mask = np.ones(n, dtype=bool)
    count = max(int(mask.sum()), 1)
    grad = probabilities.copy()
    safe_targets = np.where(mask, targets, 0)
    grad[np.arange(n), safe_targets] -= 1.0
    grad *= mask[:, None] / count
    return grad


# sqrt(2/pi) as a *python* float: NumPy 2's promotion rules treat python
# scalars as weak, so float32 activations stay float32.  (An np.float64
# scalar from np.sqrt() would silently promote every activation downstream
# of the first GELU to float64 — 2x the matmul cost and 4x the tanh cost.)
_GELU_C = 0.7978845608028654


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation); preserves ``x``'s dtype.

    The cube is written as ``x * x * x`` on purpose: numpy's float32 ``x**3``
    dispatches to a generic ``pow`` loop that is ~100x slower than two
    multiplies and dominated the whole decoding hot path.  The inner term
    is built in one temporary, in the formula's order
    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x)))``.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    out = 0.5 * x
    out *= inner
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu` with respect to its input."""
    square = x * x
    inner = _GELU_C * (x + 0.044715 * square * x)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner * tanh_inner
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * square)
