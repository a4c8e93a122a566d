"""Node structures (symbol words) and the stochastic edits that derive new ones."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

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

    def position(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"Symbol {symbol!r} is not in the alphabet") from None

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
        total = sum(values)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"EditProbabilities must sum to 1 (got {total})")


def mutate(word: str, index: int, new_symbol: str, alphabet: Alphabet) -> str:
    """Replace the symbol at *index* with *new_symbol*."""
    if not 0 <= index < len(word):
        raise IndexError(f"mutate index {index} out of range for length {len(word)}")
    if new_symbol not in alphabet:
        raise ValueError(f"Symbol {new_symbol!r} is not in the alphabet")
    return word[:index] + new_symbol + word[index + 1 :]


def insert_symbol(word: str, index: int, new_symbol: str, alphabet: Alphabet) -> str:
    """Insert *new_symbol* so that it occupies position *index*."""
    if not 0 <= index <= len(word):
        raise IndexError(f"insert index {index} out of range for length {len(word)}")
    if new_symbol not in alphabet:
        raise ValueError(f"Symbol {new_symbol!r} is not in the alphabet")
    return word[:index] + new_symbol + word[index:]


def delete_symbol(word: str, index: int) -> str:
    """Remove the symbol at *index*; the word must keep length >= 1."""
    if len(word) < 2:
        raise ValueError("Cannot delete from a length-1 structure")
    if not 0 <= index < len(word):
        raise IndexError(f"delete index {index} out of range for length {len(word)}")
    return word[:index] + word[index + 1 :]


def duplicate_segment(word: str, start: int, length: int) -> str:
    """Copy word[start:start+length] and insert the copy right after the segment."""
    if length < 1 or start < 0 or start + length > len(word):
        raise IndexError(
            f"segment ({start}, {length}) out of range for length {len(word)}"
        )
    end = start + length
    return word[:end] + word[start:end] + word[end:]


def apply_random_edit(
    word: str,
    probs: EditProbabilities,
    alphabet: Alphabet,
    rng: random.Random,
    max_length: int = DEFAULT_MAX_LENGTH,
) -> tuple[str | None, Edit, int]:
    """Draw one edit kind from *probs* and apply it with uniform random parameters.

    Returns ``(new_word, kind, at)``. ``new_word`` is None when the attempt
    fails: a delete drawn on a length-1 structure, or a result that would
    exceed *max_length*; ``at`` is then 0. Otherwise ``new_word[:at] ==
    word[:at]``: ``at`` is the mutated, inserted or deleted position, or the
    end of a duplicated segment, where its copy begins. A mutation changes
    position ``at`` alone. Parameter draws:

    - mutate: position uniform over the word, new symbol uniform over the
      alphabet minus the current symbol (the edit always changes the word);
    - insert: position uniform over 0..len, symbol uniform over the alphabet;
    - delete: position uniform over the word;
    - duplicate: start uniform over the word, segment length uniform over
      1..len-start, copy inserted immediately after the segment.
    """
    draw = rng.random()
    if draw < probs.mutate:
        kind = Edit.MUTATE
    elif draw < probs.mutate + probs.insert:
        kind = Edit.INSERT
    elif draw < probs.mutate + probs.insert + probs.delete:
        kind = Edit.DELETE
    else:
        kind = Edit.DUPLICATE

    if kind is Edit.MUTATE:
        if len(alphabet) < 2:
            return None, kind, 0
        index = rng.randrange(len(word))
        pick = rng.randrange(len(alphabet) - 1)
        if pick >= alphabet.position(word[index]):
            pick += 1
        return mutate(word, index, alphabet.symbols[pick], alphabet), kind, index

    if kind is Edit.INSERT:
        if len(word) + 1 > max_length:
            return None, kind, 0
        index = rng.randrange(len(word) + 1)
        symbol = alphabet.symbols[rng.randrange(len(alphabet))]
        return insert_symbol(word, index, symbol, alphabet), kind, index

    if kind is Edit.DELETE:
        if len(word) < 2:
            return None, kind, 0
        index = rng.randrange(len(word))
        return delete_symbol(word, index), kind, index

    start = rng.randrange(len(word))
    length = rng.randint(1, len(word) - start)
    if len(word) + length > max_length:
        return None, kind, 0
    return duplicate_segment(word, start, length), kind, start + length
