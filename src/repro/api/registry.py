"""A generic string-ID component registry (the backbone of :mod:`repro.api`).

Every user-facing component class — environments, policies, optimizers — is
published under a gym-style string ID (``"opamp-p2s-v0"``, ``"gcn_fc"``,
``"ppo"``).  A :class:`Registry` maps those IDs to factory callables,
supports decorator-based registration, aliases, per-entry default keyword
arguments, and raises :class:`UnknownComponentError` with close-match
suggestions when an ID is not found::

    POLICIES = Registry("policy")

    @POLICIES.register("gcn_fc", description="GCN + spec-FCNN multimodal policy")
    def _gcn_fc(env, rng=None, **overrides):
        ...

    POLICIES.make("gcn_fc", env)       # -> policy instance
    POLICIES.ids()                     # -> ["gcn_fc"]
    POLICIES.make("gcn-fc ")           # -> UnknownComponentError with hint
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class UnknownComponentError(ValueError):
    """Raised when a registry lookup fails.

    Subclasses :class:`ValueError`, so callers that catch ``ValueError`` for
    an unknown name catch it too.
    """


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its factory plus discovery metadata."""

    id: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    defaults: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)


class Registry:
    """Maps string IDs to component factories.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"environment"``, ``"policy"``,
        ``"optimizer"``) — used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        id: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        description: str = "",
        aliases: Sequence[str] = (),
        defaults: Optional[Dict[str, Any]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        overwrite: bool = False,
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``id`` (usable as a decorator).

        ``aliases`` are alternative IDs resolving to the same entry (useful
        for legacy names such as ``"genetic_algorithm"`` -> ``"genetic"``).
        ``defaults`` are keyword arguments merged under any caller-provided
        keywords at :meth:`make` time.
        """

        def _do_register(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not id or not isinstance(id, str):
                raise ValueError(f"{self.kind} id must be a non-empty string, got {id!r}")
            for name in (id, *aliases):
                if not overwrite and name in self._entries:
                    raise ValueError(
                        f"{self.kind} id '{name}' is already registered; "
                        f"pass overwrite=True to replace it"
                    )
                if not overwrite and name in self._aliases:
                    raise ValueError(
                        f"'{name}' is already an alias for {self.kind} "
                        f"'{self._aliases[name]}'; pass overwrite=True to replace it"
                    )
            if overwrite:
                # Every claimed name must actually repoint: drop any entry
                # registered under one of them (with its stale aliases) and
                # any alias mapping that would otherwise shadow the new one.
                for name in (id, *aliases):
                    if name in self._entries:
                        self.unregister(name)
                    self._aliases.pop(name, None)
            doc_lines = (fn.__doc__ or "").strip().splitlines()
            entry = RegistryEntry(
                id=id,
                factory=fn,
                description=description or (doc_lines[0] if doc_lines else ""),
                aliases=tuple(aliases),
                defaults=dict(defaults or {}),
                metadata=dict(metadata or {}),
            )
            self._entries[id] = entry
            for alias in aliases:
                self._aliases[alias] = id
            return fn

        if factory is not None:
            return _do_register(factory)
        return _do_register

    def unregister(self, id: str) -> None:
        """Remove an entry and all of its aliases (mainly for tests)."""
        canonical = self.resolve(id)
        entry = self._entries.pop(canonical)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve(self, id: str) -> str:
        """Resolve an ID or alias to the canonical ID, or raise."""
        if id in self._entries:
            return id
        if id in self._aliases:
            return self._aliases[id]
        raise self._unknown(id)

    def get(self, id: str) -> RegistryEntry:
        """Look up the :class:`RegistryEntry` for an ID or alias."""
        return self._entries[self.resolve(id)]

    def make(self, id: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``id``.

        Entry ``defaults`` are applied first; caller keywords win.
        """
        entry = self.get(id)
        merged = {**entry.defaults, **kwargs}
        return entry.factory(*args, **merged)

    def ids(self) -> List[str]:
        """Sorted canonical IDs (aliases excluded)."""
        return sorted(self._entries)

    def describe(self) -> Dict[str, str]:
        """Canonical ID -> one-line description (for discovery helpers)."""
        return {id: self._entries[id].description for id in self.ids()}

    # ------------------------------------------------------------------
    # Protocol sugar
    # ------------------------------------------------------------------
    def __contains__(self, id: object) -> bool:
        return isinstance(id, str) and (id in self._entries or id in self._aliases)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

    def items(self) -> List[Tuple[str, RegistryEntry]]:
        """``(id, entry)`` pairs for every registered component, sorted by ID."""
        return [(id, self._entries[id]) for id in self.ids()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, ids={self.ids()})"

    # ------------------------------------------------------------------
    def _unknown(self, id: str) -> UnknownComponentError:
        known = sorted({*self._entries, *self._aliases})
        suggestions = difflib.get_close_matches(id, known, n=3, cutoff=0.4)
        hint = f" Did you mean {' or '.join(repr(s) for s in suggestions)}?" if suggestions else ""
        return UnknownComponentError(
            f"unknown {self.kind} id '{id}'.{hint} "
            f"Available {self.kind} ids: {self.ids()}"
        )
