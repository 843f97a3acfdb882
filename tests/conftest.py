"""Fixtures shared by the test modules."""

import collections
import itertools
import math

import numpy as np
import pytest

from rowtuples.polynomials import graded_positions


def _plain_power(t, alpha) -> np.ndarray:
    """``T^alpha = T_1^a1 .. T_d^ad`` as a plain loop of ``n x n`` products, ``T_d`` applied first."""
    out = np.eye(t.dim, dtype=np.complex128)
    for k in reversed(range(t.d)):
        for _ in range(alpha[k]):
            out = t.mats[k] @ out
    return out


@pytest.fixture(scope="session")
def power():
    """The oracle of the library's powers, which the orbit step builds: ``power(t, alpha)``."""
    return _plain_power


class WordFock:
    """The full Fock space over ``C^d``, cut at words of length ``max_length``.

    The paper's statement lives here: a pure row contraction is a
    compression of the left creation operators.  The package works on the
    symmetric Fock space only (``TruncatedDA``); this word basis is the
    reference it is checked against.  Words are letter tuples over
    ``1..d``, ordered by length, then in dictionary order.
    """

    def __init__(self, d: int, max_length: int):
        self.d, self.max_length = d, max_length
        letters = range(1, d + 1)
        self.basis = [w for n in range(max_length + 1) for w in itertools.product(letters, repeat=n)]
        self.dim = len(self.basis)

    def letter_counts(self, word) -> tuple[int, ...]:
        return tuple(word.count(k) for k in range(1, self.d + 1))

    def creation(self, k: int) -> np.ndarray:
        """``L_k: e_w -> e_{kw}``, words at the cap sent to zero.

        In dictionary order ``kw`` is the ``w``-th word of the ``k``-th
        block of its length, so ``L_k`` maps the length-``l`` words by
        ``e_k ⊗ I_{d^l}``.
        """
        out = np.zeros((self.dim, self.dim))
        e_k = np.eye(self.d)[:, [k - 1]]
        start = 0
        for n in range(self.max_length):
            size = self.d**n
            out[start + size : start + size + self.d * size, start : start + size] = np.kron(e_k, np.eye(size))
            start += size
        return out

    def symmetrization(self) -> np.ndarray:
        """Isometry from ``TruncatedDA(d, max_length)``: ``x^α/||x^α||`` to the normalized sum of the words of ``α``."""
        counts = [self.letter_counts(w) for w in self.basis]
        sizes = collections.Counter(counts)
        positions = graded_positions(self.d, self.max_length)
        out = np.zeros((self.dim, len(positions)))
        for i, alpha in enumerate(counts):
            out[i, positions[alpha]] = 1.0 / math.sqrt(sizes[alpha])
        return out

    def intertwiner(self, t, xi) -> np.ndarray:
        """``e_w -> T_w xi``, one letter applied at a time: ``T_(k, *w) = T_k T_w``."""
        levels = [np.asarray(xi, dtype=np.complex128)[:, None]]
        for _ in range(self.max_length):
            levels.append(np.hstack([tk @ levels[-1] for tk in t.mats]))
        return np.hstack(levels)


@pytest.fixture(scope="session")
def word_fock():
    """The word-basis reference: ``word_fock(d, max_length)``."""
    return WordFock
