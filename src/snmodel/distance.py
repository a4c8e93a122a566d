"""Generalized Hamming distance between structures and edge eligibility.

Structures are compared group by group: consecutive blocks of
``unit_distance`` symbols. Two groups match when they contain the same
multiset of symbols, or when a match table declares them equal. Symbols past
the last full group of the shorter structure are disregarded, trailing
partial groups included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .structures import Alphabet


def parse_match_file(text: str, unit: int, alphabet: Alphabet) -> Mapping[str, frozenset[str]]:
    """Parse match rules, one per line: ``TUPLE = [TUPLE [TUPLE ...]]``.

    ``#`` starts a comment and blank lines are ignored. The right side may be
    empty, which contributes no equivalences beyond the default multiset
    rule. A rule between two groups of the same multiset restates that rule
    and is dropped. Asymmetric input is accepted: the symmetric closure is
    taken and a warning is emitted.

    Returns the match table: a read-only mapping from each group to the
    groups of other multisets declared equal to it, symmetric by
    construction.
    """
    if unit <= 1:
        raise ValueError("A match table requires unit_distance > 1")

    def check_group(token: str, line_no: int) -> str:
        if len(token) != unit:
            raise ValueError(
                f"line {line_no}: group {token!r} has length {len(token)}, expected {unit}"
            )
        for sym in token:
            if sym not in alphabet:
                raise ValueError(f"line {line_no}: symbol {sym!r} is not in the alphabet")
        return token

    declared: dict[str, set[str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'TUPLE = [TUPLE ...]', got {raw!r}")
        left_text, right_text = line.split("=", 1)
        left = check_group(left_text.strip(), line_no)
        declared.setdefault(left, set())
        for token in right_text.split():
            right = check_group(token, line_no)
            if sorted(right) != sorted(left):
                declared[left].add(right)

    asymmetric = False
    for left, rights in list(declared.items()):
        for right in rights:
            if left not in declared.get(right, ()):
                asymmetric = True
                declared.setdefault(right, set()).add(left)
    if asymmetric:
        warnings.warn(
            "match file is not symmetric; missing reverse rules were added",
            stacklevel=2,
        )

    return MappingProxyType({g: frozenset(eq) for g, eq in declared.items() if eq})


@dataclass(frozen=True)
class DistanceConfig:
    """Unit distance, edge threshold, and optional match table from ``parse_match_file``.

    A table built by hand must be symmetric and hold only groups of
    ``unit_distance`` symbols, as ``parse_match_file`` returns it.
    """

    unit_distance: int
    max_distance: int
    match_table: Mapping[str, frozenset[str]] | None = None

    def __post_init__(self) -> None:
        if self.unit_distance < 1:
            raise ValueError("unit_distance must be >= 1")
        if self.max_distance < 0:
            raise ValueError("max_distance must be >= 0")
        if self.match_table is not None:
            if self.unit_distance <= 1:
                raise ValueError("a match table is only allowed when unit_distance > 1")
            for group, partners in self.match_table.items():
                for g in (group, *partners):
                    if len(g) != self.unit_distance:
                        raise ValueError(
                            f"match table group {g!r} has length {len(g)}, "
                            f"not unit_distance {self.unit_distance}"
                        )
                # structure_distance and within_max_distance look up one direction.
                for partner in partners:
                    if group not in self.match_table.get(partner, ()):
                        raise ValueError(
                            f"match table is not symmetric: {group!r} = {partner!r} "
                            f"has no reverse {partner!r} = {group!r}"
                        )


def structure_distance(s1: str, s2: str, cfg: DistanceConfig) -> int:
    """Number of differing groups over the common full-group prefix."""
    unit = cfg.unit_distance
    n_groups = min(len(s1), len(s2)) // unit
    table = cfg.match_table or {}
    distance = 0
    for i in range(n_groups):
        lo, hi = i * unit, (i + 1) * unit
        g1, g2 = s1[lo:hi], s2[lo:hi]
        if sorted(g1) != sorted(g2) and g2 not in table.get(g1, ()):
            distance += 1
    return distance


def within_max_distance(s1: str, s2: str, cfg: DistanceConfig) -> bool:
    """Edge rule: the distance is at most ``cfg.max_distance``.

    Groups are compared only until one more than that differ.
    """
    unit, table, left = cfg.unit_distance, cfg.match_table or {}, cfg.max_distance
    for lo in range(0, min(len(s1), len(s2)) // unit * unit, unit):
        g1, g2 = s1[lo : lo + unit], s2[lo : lo + unit]
        if g1 != g2 and sorted(g1) != sorted(g2) and g2 not in table.get(g1, ()):
            left -= 1
            if left < 0:
                return False
    return True
