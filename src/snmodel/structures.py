"""Node structures (symbol words) and the stochastic edits that derive new ones.

``edit_drawer`` is the one implementation of the edit draw: growth binds it
once per run, and ``apply_random_edit`` is its one-call form.
"""

from __future__ import annotations

import random
from collections.abc import Callable
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


# Module names, because looking up an Enum member on its class is slow.
_MUTATE, _INSERT, _DELETE, _DUPLICATE = Edit


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


def edit_drawer(
    probs: EditProbabilities, alphabet: Alphabet, rng: random.Random
) -> Callable[[str], tuple[str | None, Edit, int]]:
    """The edit draw of one run: ``draw(word) -> (new_word, kind, at)``.

    The one implementation of the edit draw. It binds the generator's
    methods, the kinds' probability bounds and the alphabet once per run.
    ``draw`` draws one edit kind from *probs* and applies it to *word* with
    uniform random parameters.

    ``new_word`` is None when the attempt fails: a delete drawn on a
    length-1 structure, a mutation over a 1-symbol alphabet, or a result
    that would exceed ``DEFAULT_MAX_LENGTH``; ``at`` is then 0. Otherwise
    ``new_word[:at] == word[:at]``: ``at`` is the mutated, inserted or
    deleted position, or the end of a duplicated segment, where its copy
    begins. A mutation changes position ``at`` alone. The kind is drawn by
    ``rng.random()``, and every parameter by ``below``, which gives what
    ``rng.randrange`` and ``rng.randint`` would. Parameter draws:

    - mutate: position uniform over the word, new symbol uniform over the
      alphabet minus the current symbol (the edit always changes the word);
    - insert: position uniform over 0..len, symbol uniform over the alphabet;
    - delete: position uniform over the word;
    - duplicate: start uniform over the word, segment length uniform over
      1..len-start, copy inserted immediately after the segment.
    """
    random_, bits = rng.random, rng.getrandbits
    # Kind i is drawn below bound i and at or above the bounds before it.
    to_mutate, to_insert, to_delete = probs._bounds[:3]  # type: ignore[attr-defined]
    symbols, position = alphabet.symbols, alphabet._index  # type: ignore[attr-defined]
    n_symbols, max_length = len(symbols), DEFAULT_MAX_LENGTH

    def draw(word: str) -> tuple[str | None, Edit, int]:
        r = random_()
        n = len(word)
        if r < to_mutate:
            if n_symbols < 2:
                return None, _MUTATE, 0
            index = below(bits, n)
            pick = below(bits, n_symbols - 1)
            if pick >= position[word[index]]:
                pick += 1
            return word[:index] + symbols[pick] + word[index + 1 :], _MUTATE, index

        if r < to_insert:
            if n + 1 > max_length:
                return None, _INSERT, 0
            index = below(bits, n + 1)
            symbol = symbols[below(bits, n_symbols)]
            return word[:index] + symbol + word[index:], _INSERT, index

        if r < to_delete:
            if n < 2:
                return None, _DELETE, 0
            index = below(bits, n)
            return word[:index] + word[index + 1 :], _DELETE, index

        start = below(bits, n)
        length = 1 + below(bits, n - start)
        if n + length > max_length:
            return None, _DUPLICATE, 0
        end = start + length
        return word[:end] + word[start:end] + word[end:], _DUPLICATE, end

    return draw


def apply_random_edit(
    word: str,
    probs: EditProbabilities,
    alphabet: Alphabet,
    rng: random.Random,
) -> tuple[str | None, Edit, int]:
    """Draw one edit of *word*: ``edit_drawer(probs, alphabet, rng)(word)``."""
    return edit_drawer(probs, alphabet, rng)(word)


def edit_space_size(
    words: tuple[str, ...], probs: EditProbabilities, alphabet: Alphabet, limit: int
) -> int | None:
    """Distinct words among *words* and all their single edits.

    Lists exactly what ``edit_drawer`` can return for each edit kind
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
