"""Brute-force oracles kept deliberately independent of the library code.

Each oracle re-derives an answer by exhaustive enumeration instead of any
clever matching, so the fast implementations can be checked against them.
``implies_str`` is the one exception: a shorthand over the library's own
parser and ``implies`` for tests that state permissions as strings.
"""

from itertools import product

from fedsec.errors import MalformedPermission, SchemaMismatch
from fedsec.permissions import implies, parse_permission


def cover_set(parts, alphabet, depth):
    """All concrete access tuples of length ``depth`` covered by a part list.

    ``parts`` is a sequence whose elements are "*" or a set of literals.
    Positions beyond len(parts) match any literal (omitted trailing parts
    match anything).
    """
    choices = []
    for i in range(depth):
        if i < len(parts):
            p = parts[i]
            choices.append(list(alphabet) if p == "*" else sorted(p))
        else:
            choices.append(list(alphabet))
    return set(product(*choices))


def oracle_implies_parts(granted_parts, required_parts, alphabet=("a", "b"), depth=5):
    """Set-inclusion oracle: granted implies required iff every concrete
    tuple covered by required is covered by granted.

    The enumeration universe carries one literal that never appears in any
    spec ("~"): literal sets must stay distinguishable from the wildcard
    even when they happen to saturate the generation alphabet, because the
    real literal universe is open-ended.
    """
    universe = tuple(alphabet) + ("~",)
    return cover_set(required_parts, universe, depth) <= cover_set(granted_parts, universe, depth)


def oracle_path_prefix(granted_path, required_path):
    """Granted path covers required path iff its segment list is a prefix."""
    gsegs = [s for s in granted_path.split("/") if s]
    rsegs = [s for s in required_path.split("/") if s]
    return rsegs[: len(gsegs)] == gsegs


class CoverOracle:
    """Mask-based form of the enumeration oracle for bulk runs.

    The universe of concrete access tuples (alphabet+sentinel, fixed depth)
    is enumerated once; each tuple becomes one bit. A part list's cover set
    is then the AND of per-position choice masks, and implication is mask
    inclusion. Semantics are identical to oracle_implies_parts; only the
    set representation differs.
    """

    def __init__(self, alphabet=("a", "b"), depth=5):
        self.universe = tuple(product(tuple(alphabet) + ("~",), repeat=depth))
        self.depth = depth
        self.full = (1 << len(self.universe)) - 1
        self._literal_masks = {}
        for position in range(depth):
            for literal in tuple(alphabet) + ("~",):
                bits = 0
                for index, access_tuple in enumerate(self.universe):
                    if access_tuple[position] == literal:
                        bits |= 1 << index
                self._literal_masks[(position, literal)] = bits

    def cover_mask(self, parts) -> int:
        mask = self.full
        for position, part in enumerate(parts[: self.depth]):
            if part == "*":
                continue
            bits = 0
            for literal in part:
                bits |= self._literal_masks.get((position, literal), 0)
            mask &= bits
        return mask

    def implies(self, granted_parts, required_parts) -> bool:
        required = self.cover_mask(required_parts)
        granted = self.cover_mask(granted_parts)
        return required & ~granted == 0


def oracle_reachable(edges, start_roles, target):
    """BFS reachability over a child-edge dict {role: set(children)}."""
    seen = set()
    frontier = list(start_roles)
    while frontier:
        r = frontier.pop()
        if r in seen:
            continue
        seen.add(r)
        frontier.extend(edges.get(r, ()))
    return target in seen


def oracle_has_cycle(edges):
    """Detect a cycle in a child-edge dict by iterative DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    for child_set in edges.values():
        for c in child_set:
            color.setdefault(c, WHITE)
    for root in list(color):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(edges.get(root, ()))))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == GRAY:
                    return True
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(sorted(edges.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def _reference_part(chunk):
    if chunk == "":
        raise MalformedPermission("empty part")
    subs = chunk.split(",")
    if any(s == "" for s in subs):
        raise MalformedPermission(f"empty sub-part in {chunk!r}")
    if "*" in subs:
        if len(subs) != 1:
            raise MalformedPermission(f"wildcard mixed with literals in {chunk!r}")
        return "*"
    for s in subs:
        if "*" in s:
            raise MalformedPermission(f"partial wildcard {s!r} is not supported")
    return frozenset(subs)


def _reference_path(raw_path):
    if not raw_path.startswith("/"):
        raise MalformedPermission(f"path tail must be absolute: {raw_path!r}")
    segments = [s for s in raw_path.split("/") if s != ""]
    if any(s in (".", "..") for s in segments):
        raise MalformedPermission(f"path tail may not contain . or .. segments: {raw_path!r}")
    return "/" + "/".join(segments) if segments else "/"


# The schemas whose permissions end in a path, and the part at which it starts.
_REFERENCE_PATH_PART_INDEX = {"files": 4}


def _reference_path_index(first_part):
    if first_part == "*":
        return None
    indexes = {_REFERENCE_PATH_PART_INDEX.get(literal) for literal in first_part}
    if len(indexes) > 1:
        raise SchemaMismatch(f"leading part {sorted(first_part)} mixes schemas with different path semantics")
    return indexes.pop()


def reference_parse(raw):
    """``(parts, path_tail)`` of a permission string, by the straightforward parser
    that splits every part and normalizes every path: each part is ``"*"`` or a
    frozenset of literals. Raises the library's exceptions, with its messages."""
    if not raw:
        raise MalformedPermission("empty permission string")
    first_part = _reference_part(raw.split(":", 1)[0])
    path_index = _reference_path_index(first_part)
    path_tail = None
    if path_index is not None and raw.count(":") >= path_index:
        chunks = raw.split(":", path_index)
        path_tail = _reference_path(chunks.pop())
    else:
        chunks = raw.split(":")
    return tuple(_reference_part(c) for c in chunks), path_tail


def reference_canonicalize(spec):
    """A spec's canonical string, rendered part by part from its parsed fields:
    each literal set sorted and comma-joined, then the normalized path tail."""
    rendered = ["*" if part == "*" else ",".join(sorted(part)) for part in spec.parts]
    if spec.path_tail is not None:
        rendered.append(spec.path_tail)
    return ":".join(rendered)


def implies_str(granted, required):
    """``implies`` over two permission strings."""
    return implies(parse_permission(granted), parse_permission(required))
