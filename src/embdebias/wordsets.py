"""Word-list schema for social categories.

A category spec is a UTF-8 JSON object with keys ``name``, ``defining_sets``,
``equality_sets``, ``target_words``, and ``attribute_sets``; the last three
are optional and default to empty. All four set fields are lists of lists of
words. Lexicons for gender, race, religion, and the race-gender
intersectional groups ship with the package (see ``data/``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .embeddings import EmbeddingSet
from .errors import EmptySetError, SchemaError

_SET_FIELDS = ("defining_sets", "equality_sets", "target_words", "attribute_sets")


@dataclass(frozen=True)
class CategorySpec:
    """A social category's word lists.

    ``defining_sets`` identify the bias subspace (each inner list holds the
    contrasting class terms of one facet), ``equality_sets`` are equalized
    during debiasing, and ``target_words``/``attribute_sets`` feed the MAC
    evaluation. Immutable after construction; safe for shared reads.
    """

    name: str
    defining_sets: tuple[tuple[str, ...], ...]
    equality_sets: tuple[tuple[str, ...], ...] = ()
    target_words: tuple[tuple[str, ...], ...] = ()
    attribute_sets: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("category name must be a nonempty string")
        for field_name in _SET_FIELDS:
            value = getattr(self, field_name)
            frozen = tuple(tuple(ws) for ws in value)
            for ws in frozen:
                for w in ws:
                    if not isinstance(w, str) or not w:
                        raise SchemaError(
                            f"{field_name} entries must be nonempty strings")
            object.__setattr__(self, field_name, frozen)
        if not self.defining_sets:
            raise SchemaError("defining_sets must be nonempty")
        for i, ws in enumerate(self.defining_sets):
            if not ws:
                raise EmptySetError(f"defining set {i} of {self.name!r} is empty")

    def all_defining_words(self) -> tuple[str, ...]:
        return tuple(w for ws in self.defining_sets for w in ws)

    def all_equality_words(self) -> tuple[str, ...]:
        return tuple(w for ws in self.equality_sets for w in ws)

    def all_words(self) -> tuple[str, ...]:
        """Every word of the four set fields, duplicates included."""
        return tuple(w for name in _SET_FIELDS for ws in getattr(self, name)
                     for w in ws)


def lexicon_words(specs, lowercase_fallback: bool = False) -> set[str]:
    """Every word of the four set fields of ``specs``, plus each word's
    lowercase form under ``lowercase_fallback``: the only rows that subspaces,
    equalize and MAC read."""
    words = {w for spec in specs for w in spec.all_words()}
    if lowercase_fallback:
        words |= {w.lower() for w in words}
    return words


def load_category_spec(path) -> CategorySpec:
    """Parse a category spec file, checking structural invariants."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    return category_spec_from_dict(data, source=str(path))


def category_spec_from_dict(data, source: str = "<dict>") -> CategorySpec:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: top level must be a JSON object")
    if "name" not in data:
        raise SchemaError(f"{source}: missing field 'name'")
    if "defining_sets" not in data:
        raise SchemaError(f"{source}: missing field 'defining_sets'")
    fields = {"name": data["name"]}
    for key in _SET_FIELDS:
        value = data.get(key, [])
        if not isinstance(value, list) or any(not isinstance(ws, list) for ws in value):
            raise SchemaError(f"{source}: {key} must be a list of word lists")
        fields[key] = tuple(tuple(ws) for ws in value)
    return CategorySpec(**fields)


def bundled_spec_names() -> tuple[str, ...]:
    """Names of the lexicons shipped with the package."""
    pkg = resources.files("embdebias.data")
    return tuple(sorted(
        p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json")))


def load_bundled_spec(name: str) -> CategorySpec:
    """Load a bundled lexicon by name (see :func:`bundled_spec_names`)."""
    ref = resources.files("embdebias.data") / f"{name}.json"
    if not ref.is_file():
        raise SchemaError(
            f"no bundled lexicon {name!r}; available: {', '.join(bundled_spec_names())}")
    return category_spec_from_dict(json.loads(ref.read_text("utf-8")), source=f"bundled:{name}")


# --- vocabulary resolution ---------------------------------------------------

@dataclass(frozen=True)
class SetResolution:
    """Outcome of resolving one word list against a vocabulary."""

    requested: tuple[str, ...]
    resolved: tuple[str, ...]   # vocabulary-form words, original order
    missing: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, int]:
        return len(self.resolved), len(self.missing)


@dataclass(frozen=True)
class ValidationReport:
    """Per-set resolution counts for one category against one vocabulary."""

    category: str
    defining: tuple[SetResolution, ...]
    equality: tuple[SetResolution, ...]
    targets: tuple[SetResolution, ...]
    attributes: tuple[SetResolution, ...]

    @property
    def fatal(self) -> bool:
        """True iff any defining set resolved to zero words."""
        return any(not r.resolved for r in self.defining)

    def summary(self) -> str:
        lines = [f"category {self.category}: fatal={self.fatal}"]
        for section, sets in (("defining", self.defining), ("equality", self.equality),
                              ("targets", self.targets), ("attributes", self.attributes)):
            for i, r in enumerate(sets):
                line = f"  {section}[{i}]: {len(r.resolved)}/{len(r.requested)} resolved"
                if r.missing:
                    line += " (missing: " + ", ".join(r.missing) + ")"
                lines.append(line)
        return "\n".join(lines)


def resolve_words(words, emb: EmbeddingSet, lowercase_fallback: bool = False,
                  dedupe: bool = True) -> SetResolution:
    """Resolve words by exact match, then (optionally) lowercase match.

    Resolved entries are the vocabulary form actually found, so they can be
    looked up directly. With ``dedupe`` (the default) a vocabulary word is
    kept only at its first occurrence.
    """
    resolved: list[str] = []
    missing: list[str] = []
    seen: set[str] = set()
    for w in words:
        if w in emb:
            hit = w
        elif lowercase_fallback and w.lower() in emb:
            hit = w.lower()
        else:
            missing.append(w)
            continue
        if dedupe:
            if hit in seen:
                continue
            seen.add(hit)
        resolved.append(hit)
    return SetResolution(tuple(words), tuple(resolved), tuple(missing))


def validate_against_vocab(spec: CategorySpec, emb: EmbeddingSet,
                           lowercase_fallback: bool = False) -> ValidationReport:
    """Resolve every word list of ``spec`` against ``emb``'s vocabulary.

    Never raises; the report carries the outcome and its ``fatal`` flag is
    set iff a defining set emptied. Resolution is deterministic and leaves
    the embedding set untouched.
    """
    def section(sets):
        return tuple(resolve_words(ws, emb, lowercase_fallback) for ws in sets)

    return ValidationReport(
        category=spec.name,
        defining=section(spec.defining_sets),
        equality=section(spec.equality_sets),
        targets=section(spec.target_words),
        attributes=section(spec.attribute_sets),
    )
