"""Node structures (symbol words) and the stochastic edits that derive new ones.

``apply_random_edit`` states the edit draw: the kind by ``rng.random()``,
then the parameters by ``randrange`` and ``randint``. ``growth.grow`` draws
each edit inline by the same rule, from the same stream, its parameters
through ``below``; ``tests/test_replay.py`` holds growth to a replay that
edits by ``apply_random_edit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

DEFAULT_MAX_LENGTH = 10000


class Edit(str, Enum):
    """The four kinds of structure edit."""

    MUTATE = "mutate"
    INSERT = "insert"
    DELETE = "delete"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("Alphabet must contain at least one symbol")
        for sym in self.symbols:
            if not isinstance(sym, str) or len(sym) != 1:
                raise ValueError(f"Alphabet symbols must be single characters, got {sym!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("Alphabet symbols must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def from_string(cls, text: str) -> Alphabet:
        return cls(tuple(text))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.symbols)

    def validate_word(self, word: str) -> None:
        """Raise ValueError unless *word* is a non-empty string over this alphabet."""
        if not word:
            raise ValueError("Structures must have length >= 1")
        for sym in word:
            if sym not in self:
                raise ValueError(f"Symbol {sym!r} is not in the alphabet")


@dataclass(frozen=True)
class EditProbabilities:
    """Probabilities of drawing each edit kind; they must sum to 1."""

    mutate: float = 0.0
    insert: float = 0.0
    delete: float = 0.0
    duplicate: float = 0.0

    def __post_init__(self) -> None:
        values = (self.mutate, self.insert, self.delete, self.duplicate)
        for value in values:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"EditProbabilities entries must lie in [0, 1], got {value}")
        bounds = tuple(accumulate(values))
        total = bounds[-1]
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"EditProbabilities must sum to 1 (got {total})")
        # The draw's cumulative thresholds, scaled by their total so the last
        # is 1.0: kind i is drawn below _bounds[i] and at or above the bounds
        # before it, so a kind of probability 0 is never drawn.
        object.__setattr__(self, "_bounds", tuple(b / total for b in bounds))


def below(bits, n: int) -> int:
    """A uniform draw from ``range(n)``, n >= 1, where *bits* is ``rng.getrandbits``.

    It draws ``bits(n.bit_length())`` until the value is below *n*: the rule
    of CPython's ``Random.randrange(n)``, so it returns the same values and
    leaves the generator in the same state, without that method's argument
    checks.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def apply_random_edit(
    word: str,
    probs: EditProbabilities,
    alphabet: Alphabet,
    rng: random.Random,
) -> tuple[str | None, Edit, int]:
    """Draw one edit kind from *probs* and apply it to *word* with uniform
    random parameters; returns ``(new_word, kind, at)``.

    ``new_word`` is None when the attempt fails: a delete drawn on a
    length-1 structure, a mutation over a 1-symbol alphabet, or a result
    that would exceed ``DEFAULT_MAX_LENGTH``; ``at`` is then 0. Otherwise
    ``new_word[:at] == word[:at]``: ``at`` is the mutated, inserted or
    deleted position, or the end of a duplicated segment, where its copy
    begins. A mutation changes position ``at`` alone. The kind is drawn by
    ``rng.random()``, the parameters by ``rng.randrange`` and
    ``rng.randint``:

    - mutate: position uniform over the word, new symbol uniform over the
      alphabet minus the current symbol (the edit always changes the word);
    - insert: position uniform over 0..len, symbol uniform over the alphabet;
    - delete: position uniform over the word;
    - duplicate: start uniform over the word, segment length uniform over
      1..len-start, copy inserted immediately after the segment.
    """
    r = rng.random()
    bounds = probs._bounds  # type: ignore[attr-defined]
    kind = next(kind for kind, bound in zip(Edit, bounds) if r < bound)
    symbols, n = alphabet.symbols, len(word)
    if kind is Edit.MUTATE:
        if len(symbols) < 2:
            return None, kind, 0
        i = rng.randrange(n)
        others = [symbol for symbol in symbols if symbol != word[i]]
        return word[:i] + others[rng.randrange(len(others))] + word[i + 1 :], kind, i
    if kind is Edit.INSERT:
        if n + 1 > DEFAULT_MAX_LENGTH:
            return None, kind, 0
        i = rng.randrange(n + 1)
        return word[:i] + symbols[rng.randrange(len(symbols))] + word[i:], kind, i
    if kind is Edit.DELETE:
        if n < 2:
            return None, kind, 0
        i = rng.randrange(n)
        return word[:i] + word[i + 1 :], kind, i
    start = rng.randrange(n)
    end = start + rng.randint(1, n - start)
    if n + end - start > DEFAULT_MAX_LENGTH:
        return None, kind, 0
    return word[:end] + word[start:end] + word[end:], kind, end


def edit_space_size(
    words: tuple[str, ...], probs: EditProbabilities, alphabet: Alphabet, limit: int
) -> int | None:
    """Distinct words among *words* and all their single edits.

    Lists exactly what ``apply_random_edit`` can return for each edit kind
    it can draw, so once that many distinct structures exist every further
    draw from *words* repeats one. Returns None, without listing, when the
    edit counts (mutate L(A-1), insert (L+1)A, delete L, duplicate L(L+1)/2
    per word of length L over A symbols) exceed *limit*.
    """
    # A kind can be drawn when its interval of [0, 1) is not empty.
    edges = (0.0, *probs._bounds)  # type: ignore[attr-defined]
    mutate, insert, delete, duplicate = (lo < hi for lo, hi in zip(edges, edges[1:]))

    symbols = alphabet.symbols
    n_symbols = len(symbols)
    bound = 0
    for word in words:
        length = len(word)
        bound += (
            mutate * length * (n_symbols - 1)
            + insert * (length + 1) * n_symbols
            + delete * length
            + duplicate * length * (length + 1) // 2
        )
    if bound > limit:
        return None

    space = set(words)
    for word in words:
        length = len(word)
        if mutate:
            for i in range(length):
                space.update(word[:i] + s + word[i + 1 :] for s in symbols if s != word[i])
        if insert and length + 1 <= DEFAULT_MAX_LENGTH:
            for i in range(length + 1):
                space.update(word[:i] + s + word[i:] for s in symbols)
        if delete and length >= 2:
            space.update(word[:i] + word[i + 1 :] for i in range(length))
        if duplicate:
            for start in range(length):
                for end in range(start + 1, min(length, start + DEFAULT_MAX_LENGTH - length) + 1):
                    space.add(word[:end] + word[start:end] + word[end:])
    return len(space)
