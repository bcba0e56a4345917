import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsec.errors import MalformedPermission, SchemaMismatch
from fedsec.permissions import (
    WILDCARD,
    PermissionSpec,
    canonicalize,
    implies,
    parse_permission,
)

from .oracles import (
    implies_str,
    oracle_implies_parts,
    oracle_path_prefix,
    reference_canonicalize,
    reference_parse,
)

# The worked examples: a grantee of (a) reads stampede2 in tacc, (b) has all
# access to frontera in cyverse, (c) reads and modifies corral in a2cps.
PERM_A = "systems:tacc:read:stampede2"
PERM_B = "systems:cyverse:*:frontera"
PERM_C = "systems:a2cps:read,modify:corral"
PERM_D = "systems:tacc:modify:stampede2"
PERM_E = "systems:cyverse:exec:frontera"
PERM_FILES = "files:tacc:read:sys1:/home/bud/data"


def test_parse_simple_parts():
    spec = parse_permission(PERM_A)
    assert spec.parts == (
        frozenset({"systems"}),
        frozenset({"tacc"}),
        frozenset({"read"}),
        frozenset({"stampede2"}),
    )
    assert spec.path_tail is None


def test_parse_wildcard_and_comma_parts():
    b = parse_permission(PERM_B)
    assert b.parts[2] == WILDCARD
    c = parse_permission(PERM_C)
    assert c.parts[2] == frozenset({"read", "modify"})


def test_parse_files_path_tail():
    spec = parse_permission(PERM_FILES)
    assert spec.parts == (
        frozenset({"files"}),
        frozenset({"tacc"}),
        frozenset({"read"}),
        frozenset({"sys1"}),
    )
    assert spec.path_tail == "/home/bud/data"


def test_path_may_contain_colons():
    spec = parse_permission("files:tacc:read:sys1:/home/b:ud/data")
    assert spec.path_tail == "/home/b:ud/data"


def test_short_files_permission_has_no_path():
    spec = parse_permission("files:tacc:read")
    assert spec.path_tail is None
    assert len(spec.parts) == 3


@pytest.mark.parametrize(
    "raw",
    [
        "systems::read:x",        # empty part
        "",                        # empty string
        "systems:tacc:read,:x",    # empty sub-part
        "systems:tacc:**:x",       # double wildcard
        "systems:tacc:re*d:x",     # partial wildcard
        "systems:tacc:read,*:x",   # wildcard mixed with literals
        "files:tacc:read:sys1:home/bud",     # relative path
        "files:tacc:read:sys1:/home/../etc",  # parent traversal
        "files:tacc:read:sys1:/home/./bud",   # dot segment
    ],
)
def test_malformed_permissions_rejected(raw):
    with pytest.raises(MalformedPermission):
        parse_permission(raw)


def test_unknown_schema_parses_with_no_path_tail():
    spec = parse_permission("widgets:tacc:read:x:/a")
    assert (spec.parts[-1], spec.path_tail) == (frozenset({"/a"}), None)


def test_mixed_path_semantics_in_leading_part_rejected():
    with pytest.raises(SchemaMismatch):
        parse_permission("files,systems:tacc:read:sys1:/home")


# --- implication: worked examples ---

def test_b_implies_e():
    assert implies_str(PERM_B, PERM_E) is True


def test_nothing_implies_d():
    for granted in (PERM_A, PERM_B, PERM_C):
        assert implies_str(granted, PERM_D) is False


def test_c_implies_its_own_operations():
    assert implies_str(PERM_C, "systems:a2cps:read:corral")
    assert implies_str(PERM_C, "systems:a2cps:modify:corral")
    assert not implies_str(PERM_C, "systems:a2cps:exec:corral")


def test_path_grant_covers_subtree():
    assert implies_str(PERM_FILES, "files:tacc:read:sys1:/home/bud/data")
    assert implies_str(PERM_FILES, "files:tacc:read:sys1:/home/bud/data/run1/out.csv")


def test_path_prefix_must_end_on_slash_boundary():
    assert not implies_str("files:tacc:read:sys1:/home/bud/data", "files:tacc:read:sys1:/home/budget")
    assert not implies_str("files:tacc:read:sys1:/home/bud", "files:tacc:read:sys1:/home/buddy")


def test_shorter_granted_implies_longer_required():
    # Frozen from the set-inclusion oracle: cover("systems:tacc" + anything)
    # is a superset of cover of the fully qualified request.
    assert oracle_implies_parts([{"systems"}, {"tacc"}], [{"systems"}, {"tacc"}, {"read"}, {"stampede2"}],
                                alphabet=("systems", "tacc", "read", "stampede2"), depth=5)
    assert implies_str("systems:tacc", PERM_A) is True


def test_longer_granted_needs_wildcard_extras():
    assert implies_str("systems:tacc:*:*", "systems:tacc") is True
    assert implies_str("systems:tacc:read:*", "systems:tacc") is False
    assert implies_str(PERM_A, "systems:tacc") is False


def test_root_path_grant_implies_every_path():
    assert implies_str("files:tacc:read:sys1:/", "files:tacc:read:sys1:/anything/at/all")
    assert implies_str("files:tacc:read:sys1:/", "files:tacc:read:sys1:/")


def test_path_grant_does_not_imply_abstract_request():
    assert not implies_str("files:tacc:read:sys1:/home", "files:tacc:read:sys1")


def test_pathless_grant_implies_path_request():
    assert implies_str("files:tacc:read:sys1", "files:tacc:read:sys1:/home/bud")
    assert implies_str("files:tacc", "files:tacc:read:sys1:/home/bud")


def test_wildcard_schema_grant_naming_a_path_covers_it_in_files():
    grant = "*:t1:read:s1:/a"
    assert implies_str(grant, "files:t1:read:s1:/a")
    assert implies_str(grant, "files:t1:read:s1:/a/b")
    assert implies_str("*:t1:read:s1://a/", "files:t1:read:s1:/a/b")
    assert implies_str("*:t1:read:s1:/x,/a", "files:t1:read:s1:/a/b")
    assert implies_str("*:t1:read:s1:/", "files:t1:read:s1:/b")
    # Directory prefixes only, and only a literal that is an absolute path.
    assert not implies_str(grant, "files:t1:read:s1:/ab")
    assert not implies_str("*:t1:read:s1:a", "files:t1:read:s1:/a")
    assert not implies_str(grant, "files:t1:read:s1")
    assert not implies_str("*:t1:read:s2:/a", "files:t1:read:s1:/a")
    # For a schema without a path, the part stays a plain literal.
    assert implies_str(grant, "systems:t1:read:s1:/a")
    assert not implies_str(grant, "systems:t1:read:s1:/a/b")


def test_required_must_be_concrete():
    with pytest.raises(MalformedPermission):
        implies_str(PERM_A, "systems:tacc:*:stampede2")
    with pytest.raises(MalformedPermission):
        implies_str(PERM_A, "systems:tacc:read,modify:stampede2")


# --- canonical form ---

def test_canonicalize_sorts_sub_parts():
    spec = PermissionSpec(raw="", parts=(
        frozenset({"systems"}), frozenset({"a2cps"}), frozenset({"modify", "read"}), frozenset({"corral"}),
    ))
    assert canonicalize(spec) == "systems:a2cps:modify,read:corral"


def test_canonicalize_normalizes_paths():
    spec = parse_permission("files:tacc:read:sys1://home//bud/")
    assert canonicalize(spec) == "files:tacc:read:sys1:/home/bud"


def test_canonicalize_fixed_point():
    spec = parse_permission(PERM_A)
    assert canonicalize(spec) == PERM_A
    assert parse_permission(canonicalize(spec)) == spec


# --- property tests ---

lits = st.sampled_from(["a", "b"])
part_sets = st.one_of(st.just(WILDCARD), st.frozensets(lits, min_size=1, max_size=2))
granted_parts = st.lists(part_sets, min_size=1, max_size=4)
concrete_parts = st.lists(st.frozensets(lits, min_size=1, max_size=1), min_size=1, max_size=4)


def _spec(parts, path=None):
    return PermissionSpec(raw="", parts=tuple(parts), path_tail=path)


@given(concrete_parts)
def test_reflexivity(parts):
    assert implies(_spec(parts), _spec(parts)) is True


@given(granted_parts, concrete_parts)
def test_prefix_monotonicity(gparts, rparts):
    g, r = _spec(gparts), _spec(rparts)
    if len(gparts) > 1 and implies(g, r):
        assert implies(_spec(gparts[:-1]), r) is True


@given(granted_parts, concrete_parts)
@settings(max_examples=400)
def test_oracle_equivalence_on_bounded_grammar(gparts, rparts):
    got = implies(_spec(gparts), _spec(rparts))
    want = oracle_implies_parts(
        [p if p == WILDCARD else set(p) for p in gparts],
        [set(p) for p in rparts],
    )
    assert got == want


@given(granted_parts, concrete_parts, st.data())
def test_wildcard_dominance(gparts, rparts, data):
    g, r = _spec(gparts), _spec(rparts)
    if implies(g, r):
        i = data.draw(st.integers(min_value=0, max_value=len(gparts) - 1))
        widened = list(gparts)
        widened[i] = WILDCARD
        assert implies(_spec(widened), r) is True


path_segments = st.lists(st.sampled_from(["x", "y", "xy"]), min_size=0, max_size=3)


@given(path_segments, path_segments)
def test_path_boundary_matches_segment_prefix_oracle(gsegs, rsegs):
    gpath = "/" + "/".join(gsegs) if gsegs else "/"
    rpath = "/" + "/".join(rsegs) if rsegs else "/"
    base = [frozenset({"files"}), frozenset({"t"}), frozenset({"read"}), frozenset({"s"})]
    got = implies(_spec(base, gpath), _spec(base, rpath))
    assert got == oracle_path_prefix(gpath, rpath)


@given(granted_parts)
def test_canonical_round_trip(gparts):
    spec = _spec(gparts)
    assert parse_permission(canonicalize(spec)) == spec


@st.composite
def permission_strings(draw, concrete):
    """files/systems/apps permissions of 1-5 parts; a fifth part is a path
    for files and a plain part for the other schemas."""
    schemas = ["files", "systems", "apps"] if concrete else ["files", "systems", "apps", "*"]
    parts = ["t1", "read", "s1", "x"] if concrete else ["t1", "read", "read,modify", "s2", "x", "*"]
    schema = draw(st.sampled_from(schemas))
    length = draw(st.sampled_from([1, 2, 3, 4, 5, 5, 5]))  # most draws reach the path part
    middle = [draw(st.sampled_from(parts)) for _ in range(min(length - 1, 3))]
    tail = []
    if length == 5:
        tail = [draw(st.sampled_from(["/", "/a", "/a/b"] if schema == "files" else parts + ["/a/b"]))]
    return ":".join([schema, *middle, *tail])


@given(permission_strings(concrete=False), permission_strings(concrete=True))
@settings(max_examples=400)
def test_implies_never_raises_and_other_schemas_never_imply(granted, required):
    g, r = parse_permission(granted), parse_permission(required)
    got = implies(g, r)
    if g.parts[0] != WILDCARD and g.parts[0] != r.parts[0]:
        assert got is False


# Pieces of permission strings: literals, wildcards, comma sets, empty parts
# and sub-parts, and paths with empty, dot, dot-dot, dot-file and trailing segments.
parse_heads = st.sampled_from(["", "a", "files:", "files:t:r:s:", "files:t:r:s:/", "a,files:t:r:s:",
                               "*:t:r:s:", "a:b:", "b,a:*:"])
parse_pieces = st.lists(st.sampled_from(["a", "b", "*", ",", ":", "/", ".", "//", "/./", "/../",
                                         "/.hidden", ".hidden", "/a/"]), max_size=10)


@given(parse_heads, parse_pieces)
@settings(max_examples=800, deadline=None)
def test_parse_agrees_with_the_reference_parser(head, pieces):
    raw = head + "".join(pieces)
    try:
        expected = reference_parse(raw)
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            parse_permission(raw)
        assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
    else:
        spec = parse_permission(raw)
        assert (spec.parts, spec.path_tail) == expected


@given(parse_heads, parse_pieces)
@example("files:t:r:s:", ["//", "a"])  # a raw path that ends in its normal form
@example("a:b:", ["a", ",", "a"])       # a literal written twice
@settings(max_examples=800, deadline=None)
def test_canonicalize_agrees_with_the_reference_renderer(head, pieces):
    raw = head + "".join(pieces)
    try:
        spec = parse_permission(raw)
    except (MalformedPermission, SchemaMismatch):
        return
    assert canonicalize(spec) == reference_canonicalize(spec)
