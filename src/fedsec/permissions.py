"""Permission strings: parsing, canonical form, and implication.

A permission is a colon-separated list of parts. Each part is either the
wildcard ``*`` or a comma-separated set of literals, e.g.::

    systems:tacc:read:stampede2
    systems:cyverse:*:frontera
    systems:a2cps:read,modify:corral

``PATH_PART_INDEX`` maps a leading part (the schema) to the part index at
which its hierarchical path tail begins. ``files`` is the one such schema,
with its path at part 4; every other schema has no path tail. Everything
from that index onward is consumed verbatim as a single absolute path, so
paths may legally contain ``:``. A granted path covers the whole subtree
rooted at it, with prefixing decided at ``/`` boundaries only::

    files:tacc:read:sys1:/home/bud/data

grants read on every file below ``/home/bud/data`` on ``sys1`` but nothing
under ``/home/budget``.

Matching rules, all case-sensitive:

* a ``*`` part matches anything at that position;
* a granted permission with fewer parts than the request implies it
  (omitted trailing parts match anything);
* a granted permission with *more* parts than the request implies it only
  if every extra part is ``*``, with one exception: a path-less grant (one
  whose schema part is ``*``) with exactly one extra part, sitting where
  the request's path tail begins, covers that tail when one of the part's
  literals starts with ``/`` and, with empty segments dropped, is a
  directory prefix of it, so ``*:t1:read:s1:/a`` implies
  ``files:t1:read:s1:/a/b`` but not ``files:t1:read:s1:/ab``;
* path tails compare as directory prefixes, never as string prefixes.

``**`` and regex-style parts are rejected as malformed. All functions here
are pure and operate on immutable values; they are safe for unrestricted
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedPermission, SchemaMismatch

WILDCARD = "*"


#: The schemas whose permissions end in a path, and the part at which it
#: starts: files carries it in part 4 (service:tenant:operation:systemId:path).
PATH_PART_INDEX = {"files": 4}


@dataclass(frozen=True)
class PermissionSpec:
    """Parsed permission. Equality ignores the raw input string."""

    raw: str = field(compare=False)
    parts: tuple = ()
    path_tail: str | None = None

    def is_concrete(self) -> bool:
        """True when every part is a single literal (a valid request)."""
        return all(p is not WILDCARD and isinstance(p, frozenset) and len(p) == 1 for p in self.parts)


def _parse_part(chunk: str) -> "frozenset[str] | str":
    if chunk == "":
        raise MalformedPermission("empty part")
    if "," not in chunk and "*" not in chunk:
        return frozenset((chunk,))
    subs = chunk.split(",")
    if any(s == "" for s in subs):
        raise MalformedPermission(f"empty sub-part in {chunk!r}")
    if WILDCARD in subs:
        if len(subs) != 1:
            raise MalformedPermission(f"wildcard mixed with literals in {chunk!r}")
        return WILDCARD
    for s in subs:
        if "*" in s:
            raise MalformedPermission(f"partial wildcard {s!r} is not supported")
    return frozenset(subs)


def _normalize_path(raw_path: str) -> str:
    if not raw_path.startswith("/"):
        raise MalformedPermission(f"path tail must be absolute: {raw_path!r}")
    if "//" not in raw_path and "/." not in raw_path and (raw_path == "/" or raw_path[-1] != "/"):
        return raw_path  # no empty, dot or dot-dot segment: already normal
    segments = [s for s in raw_path.split("/") if s != ""]
    if any(s in (".", "..") for s in segments):
        raise MalformedPermission(f"path tail may not contain . or .. segments: {raw_path!r}")
    return "/" + "/".join(segments) if segments else "/"


def _path_index_for(first_part) -> int | None:
    """Resolve a parsed leading part to its schema path index, if any."""
    if first_part is WILDCARD:
        return None
    indexes = set()
    for literal in first_part:
        indexes.add(PATH_PART_INDEX.get(literal))
    if len(indexes) > 1:
        raise SchemaMismatch(f"leading part {sorted(first_part)} mixes schemas with different path semantics")
    return indexes.pop()


def parse_permission(raw: str) -> PermissionSpec:
    """Parse a permission string."""
    if not raw:
        raise MalformedPermission("empty permission string")
    first_chunk = raw.split(":", 1)[0]
    first_part = _parse_part(first_chunk)
    path_index = _path_index_for(first_part)

    path_tail = None
    if path_index is not None and raw.count(":") >= path_index:
        chunks = raw.split(":", path_index)
        path_tail = _normalize_path(chunks.pop())
    else:
        chunks = raw.split(":")

    parts = (first_part, *map(_parse_part, chunks[1:]))
    return PermissionSpec(raw=raw, parts=parts, path_tail=path_tail)


def canonicalize(spec: PermissionSpec) -> str:
    """Deterministic rendering: sub-part literals sorted, path normalized.

    parse(canonicalize(s)) equals s.
    """
    # A parsed spec's raw string is only as long as its literals, path tail and
    # separators when it is canonical: each part is ``*`` or one literal written
    # once (a comma set is longer), and the path tail was kept as is.
    size = len(spec.parts) - 1 if spec.path_tail is None else len(spec.parts) + len(spec.path_tail)
    for part in spec.parts:
        for literal in part:
            size += len(literal)
    if size == len(spec.raw):
        return spec.raw
    rendered = []
    for part in spec.parts:
        if part is WILDCARD or part == WILDCARD:
            rendered.append(WILDCARD)
        else:
            rendered.append(",".join(sorted(part)))
    out = ":".join(rendered)
    if spec.path_tail is not None:
        out += ":" + spec.path_tail
    return out


def path_implied(granted_path: str, required_path: str) -> bool:
    """Directory-prefix check at / boundaries; the root path implies all."""
    if granted_path == required_path:
        return True
    if granted_path == "/":
        return True
    return required_path.startswith(granted_path + "/")


def _require_concrete(required: PermissionSpec) -> None:
    if not required.is_concrete():
        raise MalformedPermission(f"required permission must be concrete: {required.raw!r}")


def implies(granted: PermissionSpec, required: PermissionSpec) -> bool:
    """Decide whether ``granted`` covers the concrete request ``required``.

    Raises MalformedPermission when ``required`` is not concrete.
    """
    _require_concrete(required)

    # A grant for another schema never covers the request, whatever its shape.
    first = granted.parts[0]
    if not (first is WILDCARD or first == WILDCARD) and not required.parts[0] <= first:
        return False

    for i, req_part in enumerate(required.parts):
        if i >= len(granted.parts):
            # Granted is a proper prefix: omitted trailing parts match anything.
            return True
        g = granted.parts[i]
        if g is WILDCARD or g == WILDCARD:
            continue
        (literal,) = req_part
        if literal not in g:
            return False

    # Granted has extra parts beyond the request: they must all be wildcards,
    # unless a path-less grant names a path where the request's tail begins.
    extra = granted.parts[len(required.parts):]
    if (len(extra) == 1 and granted.path_tail is None and required.path_tail is not None
            and not (extra[0] is WILDCARD or extra[0] == WILDCARD)):
        return any(literal.startswith("/") and path_implied(
            "/" + "/".join(s for s in literal.split("/") if s), required.path_tail)
            for literal in extra[0])
    if not all(p is WILDCARD or p == WILDCARD for p in extra):
        return False

    if granted.path_tail is None:
        return True
    if required.path_tail is None:
        # A path-scoped grant is narrower than the abstract request.
        return False
    return path_implied(granted.path_tail, required.path_tail)

