"""Spatial index: a uniform grid over 2-D world coordinates.

Worlds query "who is near this avatar" constantly (bubbles, proximity
chat, safety); the grid makes that O(neighbourhood) instead of O(n).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Set, Tuple

from repro.errors import WorldError

__all__ = ["SpatialGrid"]

Position = Tuple[float, float]
Cell = Tuple[int, int]


class SpatialGrid:
    """Uniform-cell spatial hash.

    Parameters
    ----------
    cell_size:
        Edge length of one cell; pick ≈ the most common query radius.

    Examples
    --------
    >>> grid = SpatialGrid(cell_size=2.0)
    >>> grid.insert("a", (0.0, 0.0))
    >>> grid.insert("b", (1.0, 0.0))
    >>> sorted(grid.within("a", 1.5))
    ['b']
    """

    def __init__(self, cell_size: float = 2.0):
        if cell_size <= 0:
            raise WorldError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._cells: Dict[Cell, Set[str]] = {}
        self._positions: Dict[str, Position] = {}

    def _cell_of(self, position: Position) -> Cell:
        return (
            math.floor(position[0] / self._cell_size),
            math.floor(position[1] / self._cell_size),
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entity_id: str, position: Position) -> None:
        if entity_id in self._positions:
            raise WorldError(f"{entity_id} already in grid; use move()")
        self._positions[entity_id] = position
        self._cells.setdefault(self._cell_of(position), set()).add(entity_id)

    def move(self, entity_id: str, position: Position) -> None:
        old = self._positions.get(entity_id)
        if old is None:
            raise WorldError(f"{entity_id} not in grid; use insert()")
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(position)
        if old_cell != new_cell:
            self._cells[old_cell].discard(entity_id)
            if not self._cells[old_cell]:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, set()).add(entity_id)
        self._positions[entity_id] = position

    def remove(self, entity_id: str) -> None:
        position = self._positions.pop(entity_id, None)
        if position is None:
            raise WorldError(f"{entity_id} not in grid")
        cell = self._cell_of(position)
        self._cells[cell].discard(entity_id)
        if not self._cells[cell]:
            del self._cells[cell]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def position_of(self, entity_id: str) -> Position:
        if entity_id not in self._positions:
            raise WorldError(f"{entity_id} not in grid")
        return self._positions[entity_id]

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def neighbors(self, position: Position, radius: float) -> Iterator[str]:
        """Entity ids within ``radius`` of ``position`` (exclusive of
        nothing — callers filter self out)."""
        if radius < 0:
            raise WorldError(f"radius must be >= 0, got {radius}")
        # One cell wider than the radius needs: a point whose rounded
        # distance equals the radius can floor into the next cell out
        # (query x 1.0, point x -4.9e-177, radius and cell 1.0).
        span = math.ceil(radius / self._cell_size) + 1
        cx, cy = self._cell_of(position)
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                for entity_id in self._cells.get((cx + dx, cy + dy), ()):
                    other = self._positions[entity_id]
                    if math.dist(position, other) <= radius:
                        yield entity_id

    def within(self, entity_id: str, radius: float) -> List[str]:
        """Neighbour ids within ``radius`` of ``entity_id`` (excluding
        the entity itself)."""
        center = self.position_of(entity_id)
        return [e for e in self.neighbors(center, radius) if e != entity_id]

    def distance(self, a: str, b: str) -> float:
        return math.dist(self.position_of(a), self.position_of(b))
