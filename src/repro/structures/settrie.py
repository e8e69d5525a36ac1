"""A set-trie: prefix tree over attribute sets for fast subset queries.

The paper uses this structure twice:

* the improved/optimized closure algorithms keep one trie of FD LHSs per
  RHS attribute and ask "does this trie contain a subset of the current
  FD's attributes?" (Algorithm 2 line 9, Algorithm 3 line 7), and
* the violation detector keeps all derived keys in a trie and asks the
  same subset question against each FD's LHS (Algorithm 4 line 8).

Sets are attribute bitmasks; internally each set is stored as its sorted
index sequence along a path of child dictionaries.  The subset query
walks only children whose attribute is present in the query mask, which
is the classic set-trie pruning (Savnik-style) the paper refers to.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.model.attributes import bits_of, mask_of

__all__ = ["SetTrie"]


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.terminal = False


class SetTrie:
    """Stores attribute-set bitmasks; answers subset/superset queries."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, mask: int) -> bool:
        """Insert a set; return True if it was not present before.

        The empty set (mask 0) is a valid member and is a subset of
        everything.
        """
        node = self._root
        for index in bits_of(mask):
            child = node.children.get(index)
            if child is None:
                child = _Node()
                node.children[index] = child
            node = child
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def remove(self, mask: int) -> bool:
        """Remove a set; return True if it was present.  Leaves are pruned."""
        path: list[tuple[_Node, int]] = []
        node = self._root
        for index in bits_of(mask):
            child = node.children.get(index)
            if child is None:
                return False
            path.append((node, index))
            node = child
        if not node.terminal:
            return False
        node.terminal = False
        self._size -= 1
        for parent, index in reversed(path):
            child = parent.children[index]
            if child.terminal or child.children:
                break
            del parent.children[index]
        return True

    def __contains__(self, mask: int) -> bool:
        node = self._root
        for index in bits_of(mask):
            node = node.children.get(index)  # type: ignore[assignment]
            if node is None:
                return False
        return node.terminal

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains_subset_of(self, mask: int) -> bool:
        """True iff some stored set is a subset of ``mask``.

        This is the hot query of Algorithms 2–4.
        """
        return self._contains_subset(self._root, mask)

    def _contains_subset(self, node: _Node, mask: int) -> bool:
        if node.terminal:
            return True
        for index, child in node.children.items():
            if mask >> index & 1 and self._contains_subset(child, mask):
                return True
        return False

    def contains_proper_subset_of(self, mask: int) -> bool:
        """True iff some stored set is a *proper* subset of ``mask``."""
        return self._contains_proper_subset(self._root, mask, 0)

    def _contains_proper_subset(self, node: _Node, mask: int, depth_mask: int) -> bool:
        if node.terminal and depth_mask != mask:
            return True
        for index, child in node.children.items():
            if mask >> index & 1:
                if self._contains_proper_subset(child, mask, depth_mask | (1 << index)):
                    return True
        return False

    def iter_subsets_of(self, mask: int) -> Iterator[int]:
        """Yield every stored subset of ``mask``, in sorted-path order."""
        yield from self._iter_subsets(self._root, mask, ())

    def _iter_subsets(
        self, node: _Node, mask: int, prefix: tuple[int, ...]
    ) -> Iterator[int]:
        if node.terminal:
            yield mask_of(prefix)
        for index, child in sorted(node.children.items()):
            if mask >> index & 1:
                yield from self._iter_subsets(child, mask, prefix + (index,))

    def contains_superset_of(self, mask: int) -> bool:
        """True iff some stored set is a superset of ``mask``."""
        return self._contains_superset(self._root, bits_of(mask), 0)

    def _contains_superset(
        self, node: _Node, required: tuple[int, ...], pos: int
    ) -> bool:
        if pos == len(required):
            return node.terminal or self._has_any_terminal(node)
        target = required[pos]
        for index, child in node.children.items():
            if index > target:
                continue
            next_pos = pos + 1 if index == target else pos
            if self._contains_superset(child, required, next_pos):
                return True
        return False

    def _has_any_terminal(self, node: _Node) -> bool:
        if node.terminal:
            return True
        return any(self._has_any_terminal(child) for child in node.children.values())

    def iter_all(self) -> Iterator[int]:
        """Yield all stored sets in sorted-path order.

        That is ascending by ``bits_of(mask)`` — a set comes before its
        extensions.  The lattice search's hitting-set loop consumes
        ``max_unsat`` in this order.
        """
        yield from self._iter_all(self._root, ())

    def _iter_all(self, node: _Node, prefix: tuple[int, ...]) -> Iterator[int]:
        if node.terminal:
            yield mask_of(prefix)
        for index, child in sorted(node.children.items()):
            yield from self._iter_all(child, prefix + (index,))
