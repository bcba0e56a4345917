import math
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsec import tokens
from fedsec.errors import (
    BadCredentials,
    BadSignature,
    ExpiredToken,
    MalformedToken,
    NotAuthorized,
    ReusedToken,
    SecurityError,
    UnknownSite,
    UnknownTenant,
)
from fedsec.gatekeeper import InboundRequest, validate_request
from fedsec.identity import BOOTSTRAP, Caller
from fedsec.rbac import TOKEN_GENERATOR_ROLE, RbacService
from fedsec.registry import Registry, RegistrySnapshot
from fedsec.secrets import SecretCategory, SecretPath, SecretsService, SecretValue
from fedsec.tokens import (
    VERIFIED_LIMIT,
    MemoryTombstones,
    TokenClaims,
    TokenForge,
    TokenPair,
    encode_token,
    peek_claims,
    verify,
)


def _build_site(keypool):
    from .conftest import two_site_doc

    tenants = ["admin.prime", "admin.assoc1", "tenant1", "tenant2"]
    keys = {t: keypool[i] for i, t in enumerate(tenants)}
    doc = two_site_doc(keys)
    registry = Registry.from_config(doc)
    rbac = RbacService()
    for t in ("tenant1", "admin.prime"):
        rbac.create_tenant_defaults(t)
    rbac.grant_role_to_subject("tenant1", "authenticator@admin.prime", TOKEN_GENERATOR_ROLE, "bootstrap")

    secrets = SecretsService(site_id="prime", admin_tenant="admin.prime")
    secrets.write_secret(
        SecretPath("admin.prime", SecretCategory.SERVICE_PASSWORD, "jobs", "password"),
        SecretValue(b"jobs-pw"), BOOTSTRAP)

    now = [50_000.0]
    forge = TokenForge(
        site_id="prime", admin_tenant="admin.prime",
        private_key_provider=lambda t: keys[t][0],
        rbac=rbac, registry=registry, secrets=secrets,
        clock=lambda: now[0],
    )
    return forge, registry, keys, now


@pytest.fixture
def site(keypool):
    """Primary-site forge wired to rbac, secrets, and a keyed registry."""
    return _build_site(keypool)


@pytest.fixture(scope="session")
def shared_site(keypool):
    """Session-scoped variant for property tests that only issue tokens."""
    return _build_site(keypool)


AUTHENTICATOR = Caller(name="authenticator", tenant="admin.prime", kind="service")


def test_user_token_round_trip(site):
    forge, registry, _, now = site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    claims = verify(token, registry, clock=lambda: now[0])
    assert claims.sub == "bob@tenant1"
    assert claims.tenant_id == "tenant1"
    assert claims.account_type == "user"
    assert claims.target_site is None
    assert claims.exp == now[0] + 4 * 3600


def test_user_token_requires_token_generator(site):
    forge, _, _, _ = site
    rando = Caller(name="apps", tenant="admin.prime", kind="service")
    with pytest.raises(NotAuthorized):
        forge.issue_user_token(rando, "tenant1", "bob")


def test_user_token_unknown_tenant(site):
    forge, _, _, _ = site
    with pytest.raises(UnknownTenant):
        forge.issue_user_token(AUTHENTICATOR, "ghost", "bob")


def test_service_tokens_one_pair_per_target(site):
    forge, registry, _, now = site
    pairs = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime", "assoc1"])
    assert set(pairs) == {"prime", "assoc1"}
    claims = {t: verify(p.access, registry, clock=lambda: now[0]) for t, p in pairs.items()}
    assert claims["prime"].target_site == "prime"
    assert claims["assoc1"].target_site == "assoc1"
    for c in claims.values():
        assert c.sub == "jobs@admin.prime"
        assert c.tenant_id == "admin.prime"
        assert c.account_type == "service"
    # Pairs differ only in target_site and identifiers.
    a, b = claims["prime"], claims["assoc1"]
    assert a.jti != b.jti
    assert (a.sub, a.tenant_id, a.exp, a.iat) == (b.sub, b.tenant_id, b.exp, b.iat)


def test_service_tokens_bad_password(site):
    forge, _, _, _ = site
    with pytest.raises(BadCredentials):
        forge.issue_service_tokens("jobs", b"wrong", "prime", ["prime"])


def test_service_tokens_unknown_target(site):
    forge, _, _, _ = site
    with pytest.raises(UnknownSite):
        forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["nowhere"])


def test_associate_cannot_target_other_associate(keyed_two_site, keypool):
    doc, keys = keyed_two_site
    doc["sites"].append({
        "site_id": "assoc2", "is_primary": False, "admin_tenant": "admin.assoc2",
        "base_host": "assoc2.sim",
        "services": ["security-kernel", "tokens", "authenticator"],
    })
    doc["tenants"].append({"tenant_id": "admin.assoc2", "owning_site": "assoc2",
                           "is_admin_tenant": True, "public_key": keypool[4][1]})
    registry = Registry.from_config(doc)
    secrets = SecretsService(site_id="assoc1", admin_tenant="admin.assoc1")
    secrets.write_secret(
        SecretPath("admin.assoc1", SecretCategory.SERVICE_PASSWORD, "systems", "password"),
        SecretValue(b"pw"), BOOTSTRAP)
    forge = TokenForge(
        site_id="assoc1", admin_tenant="admin.assoc1",
        private_key_provider=lambda t: {**keys, "admin.assoc2": keypool[4]}[t][0],
        rbac=RbacService(), registry=registry, secrets=secrets)

    pairs = forge.issue_service_tokens("systems", b"pw", "assoc1", ["assoc1", "prime"])
    assert set(pairs) == {"assoc1", "prime"}
    with pytest.raises(NotAuthorized):
        forge.issue_service_tokens("systems", b"pw", "assoc1", ["assoc2"])


def test_refresh_rotates_and_is_single_use(site):
    forge, registry, _, now = site
    pair = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"]
    now[0] += 100
    newpair = forge.refresh(pair.refresh)
    new_claims = verify(newpair.access, registry, clock=lambda: now[0])
    old_claims = peek_claims(pair.access)
    assert new_claims.exp > old_claims.exp
    assert new_claims.sub == old_claims.sub
    with pytest.raises(ReusedToken):
        forge.refresh(pair.refresh)


def test_refresh_expired(site):
    forge, _, _, now = site
    pair = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"]
    now[0] += 25 * 3600
    with pytest.raises(ExpiredToken):
        forge.refresh(pair.refresh)


def test_access_token_cannot_refresh(site):
    forge, _, _, _ = site
    pair = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"]
    with pytest.raises(MalformedToken):
        forge.refresh(pair.access)


def test_cross_tenant_forgery_rejected(site):
    forge, registry, keys, now = site
    # Signed with tenant2's key but claiming tenant1.
    claims = TokenClaims(jti="x", sub="eve@tenant1", tenant_id="tenant1",
                         account_type="user", exp=now[0] + 100, iat=now[0])
    forged = encode_token(claims, keys["tenant2"][0])
    with pytest.raises(BadSignature):
        verify(forged, registry, clock=lambda: now[0])


def test_truncated_token_malformed(site):
    forge, registry, _, now = site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    with pytest.raises(MalformedToken):
        verify(token[: len(token) // 2], registry, clock=lambda: now[0])
    with pytest.raises(MalformedToken):
        verify("not-a-token", registry, clock=lambda: now[0])


def test_expired_token_rejected(site):
    forge, registry, _, now = site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob", ttl=10)
    now[0] += 11
    with pytest.raises(ExpiredToken):
        verify(token, registry, clock=lambda: now[0])


def test_unknown_tenant_on_verify(site):
    forge, registry, keys, now = site
    claims = TokenClaims(jti="x", sub="u@ghost", tenant_id="ghost",
                         account_type="user", exp=now[0] + 100, iat=now[0])
    token = encode_token(claims, keys["tenant1"][0])
    with pytest.raises(UnknownTenant):
        verify(token, registry, clock=lambda: now[0])


def test_claim_invariants_enforced():
    with pytest.raises(MalformedToken):
        TokenClaims(jti="x", sub="s@t", tenant_id="t", account_type="service",
                    exp=2.0, iat=1.0)  # service without target_site
    with pytest.raises(MalformedToken):
        TokenClaims(jti="x", sub="u@t", tenant_id="t", account_type="user",
                    exp=2.0, iat=1.0, target_site="prime")  # user with target_site
    with pytest.raises(MalformedToken):
        TokenClaims(jti="x", sub="u@other", tenant_id="t", account_type="user",
                    exp=2.0, iat=1.0)  # sub suffix mismatch
    with pytest.raises(MalformedToken):
        TokenClaims(jti="x", sub="u@t", tenant_id="t", account_type="user",
                    exp=1.0, iat=2.0)  # exp before iat


@pytest.mark.parametrize("iat, exp", [(1.0, math.inf), (1.0, math.nan), (-math.inf, 2.0),
                                      (math.nan, 2.0)])
def test_a_non_finite_iat_or_exp_is_malformed(site, iat, exp):
    with pytest.raises(MalformedToken):
        TokenClaims(jti="x", sub="u@t", tenant_id="t", account_type="user", exp=exp, iat=iat)
    # Signed anyway, such a token never verifies, however late the clock.
    _, registry, keys, _ = site
    payload = {"jti": "x", "sub": "bob@tenant1", "tenant_id": "tenant1", "account_type": "user",
               "iat": iat, "exp": exp}
    token = encode_token(SimpleNamespace(to_payload=lambda: payload), keys["tenant1"][0])
    with pytest.raises(MalformedToken):
        verify(token, registry, clock=lambda: 1e300)


names = st.text(alphabet="abcdefgh", min_size=1, max_size=8)


@given(username=names, ttl=st.floats(min_value=1, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_fuzzed_claims_round_trip(shared_site, username, ttl):
    forge, registry, _, now = shared_site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", username, ttl=ttl)
    claims = verify(token, registry, clock=lambda: now[0])
    assert claims.sub == f"{username}@tenant1"
    assert claims.exp == pytest.approx(now[0] + ttl)


# -- tombstones are bounded by the refresh tokens' expiry --

def test_replayed_refresh_token_is_reused_until_it_expires(site):
    forge, _, _, now = site
    first = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"]
    forge.refresh(first.refresh)
    # Just before the refresh token's exp, after other refreshes pruned the set.
    now[0] += forge.refresh_ttl - 1
    forge.refresh(forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"].refresh)
    with pytest.raises(ReusedToken):
        forge.refresh(first.refresh)
    now[0] += 1
    with pytest.raises(ExpiredToken):
        forge.refresh(first.refresh)


def test_tombstones_drop_entries_past_their_expiry(site):
    forge, _, _, now = site
    for _ in range(3):
        forge.refresh(forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"].refresh)
    assert len(forge.tombstones) == 3
    now[0] += forge.refresh_ttl
    forge.refresh(forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"].refresh)
    assert len(forge.tombstones) == 1


def test_memory_tombstones_keep_an_entry_until_its_exp():
    now = [100.0]
    stones = MemoryTombstones(clock=lambda: now[0])
    assert stones.consume("a", 150.0) and stones.consume("b", 300.0)
    now[0] = 149.0
    assert stones.consume("c", 400.0) and len(stones) == 3
    assert not stones.consume("a", 150.0)
    now[0] = 150.0
    # Its verify passed just before exp: the replay still finds the entry.
    assert not stones.consume("a", 150.0)
    assert stones.consume("d", 400.0) and len(stones) == 3  # "a" dropped


def test_racing_refreshes_of_one_token_yield_exactly_one_pair(site):
    forge, _, _, _ = site
    rounds = 200
    tokens_ = [forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"].refresh
               for _ in range(rounds)]
    barrier = threading.Barrier(2, timeout=30)
    outcomes = [[None] * rounds for _ in range(2)]
    errors = []

    def worker(slot):
        try:
            for i, token in enumerate(tokens_):
                barrier.wait()  # both threads refresh the same token at once
                try:
                    outcomes[slot][i] = forge.refresh(token)
                except ReusedToken as exc:
                    outcomes[slot][i] = exc
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for i, pair in enumerate(zip(*outcomes)):
        assert sum(isinstance(o, TokenPair) for o in pair) == 1, (i, pair)
        assert sum(isinstance(o, ReusedToken) for o in pair) == 1, (i, pair)


# -- the verified-token cache --

@pytest.fixture
def verified(monkeypatch):
    """A fresh verified-token cache, and the count of full signature checks."""
    cache = tokens._VerifiedTokens(VERIFIED_LIMIT)
    monkeypatch.setattr(tokens, "_verified", cache)
    checks = []
    real = tokens._verify_signature

    def counting(token, registry):
        checks.append(token)
        return real(token, registry)

    monkeypatch.setattr(tokens, "_verify_signature", counting)
    return cache, checks


def test_a_repeated_verify_skips_the_signature_check(site, verified):
    forge, registry, _, now = site
    cache, checks = verified
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    first = verify(token, registry, clock=lambda: now[0])
    second = verify(token.encode(), registry, clock=lambda: now[0])
    assert first == second
    assert len(checks) == 1 and len(cache) == 1


def test_a_cached_token_expires(site, verified):
    forge, registry, _, now = site
    _, checks = verified
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob", ttl=10)
    verify(token, registry, clock=lambda: now[0])
    now[0] += 10
    with pytest.raises(ExpiredToken):
        verify(token, registry, clock=lambda: now[0])
    assert len(checks) == 1  # rejected by the cached entry's exp


def test_a_replaced_key_rejects_the_cached_token_at_rule_1(site, verified, keypool):
    forge, registry, keys, now = site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    request = InboundRequest(token=token, target_service="security-kernel", receiving_site="prime")
    assert validate_request(request, registry, clock=lambda: now[0]).accepted
    registry.replace_public_key("tenant1", keypool[5][1])
    with pytest.raises(BadSignature):
        verify(token, registry, clock=lambda: now[0])
    verdict = validate_request(request, registry, clock=lambda: now[0])
    assert (verdict.accepted, verdict.rule_violated) == (False, "1")
    registry.replace_public_key("tenant1", keys["tenant1"][1])
    assert validate_request(request, registry, clock=lambda: now[0]).accepted


def test_a_removed_tenant_rejects_the_cached_token(site, verified):
    forge, registry, _, now = site
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    verify(token, registry, clock=lambda: now[0])
    snap = registry.snapshot
    without = RegistrySnapshot(snap.sites.values(),
                               [t for t in snap.tenants.values() if t.tenant_id != "tenant1"])
    with pytest.raises(UnknownTenant):
        verify(token, without, clock=lambda: now[0])


def test_a_tampered_token_never_hits(site, verified):
    forge, registry, _, now = site
    _, checks = verified
    token = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob")
    verify(token, registry, clock=lambda: now[0])
    for i, char in enumerate(token):
        tampered = token[:i] + ("A" if char != "A" else "B") + token[i + 1:]
        checks.clear()
        try:
            verify(tampered, registry, clock=lambda: now[0])
        except SecurityError:
            pass
        assert checks == [tampered], f"character {i} hit the cache"


def test_a_failed_verify_is_never_cached(site, verified, keypool):
    forge, registry, keys, now = site
    cache, _ = verified
    expired = forge.issue_user_token(AUTHENTICATOR, "tenant1", "bob", ttl=10)
    forged = encode_token(TokenClaims(jti="x", sub="eve@tenant1", tenant_id="tenant1",
                                      account_type="user", exp=now[0] + 100, iat=now[0]),
                          keys["tenant2"][0])
    ghost = encode_token(TokenClaims(jti="g", sub="u@ghost", tenant_id="ghost",
                                     account_type="user", exp=now[0] + 100, iat=now[0]),
                         keys["tenant1"][0])
    for token, error in ((expired, ExpiredToken), (forged, BadSignature),
                         (ghost, UnknownTenant), ("not-a-token", MalformedToken)):
        with pytest.raises(error):
            verify(token, registry, clock=lambda: now[0] + 11)
    assert len(cache) == 0


def test_the_cache_never_exceeds_its_bound(site, monkeypatch):
    forge, registry, _, now = site
    assert tokens._verified.limit == VERIFIED_LIMIT  # the process-wide cache
    cache = tokens._VerifiedTokens(4)
    monkeypatch.setattr(tokens, "_verified", cache)
    issued = [forge.issue_user_token(AUTHENTICATOR, "tenant1", f"u{i}") for i in range(10)]
    for token in issued:
        verify(token, registry, clock=lambda: now[0])
        assert len(cache) <= 4
    # The least recently used go first: a hit keeps an entry.
    verify(issued[6], registry, clock=lambda: now[0])
    verify(issued[0], registry, clock=lambda: now[0])
    assert cache.get(issued[6]) is not None and cache.get(issued[7]) is None
    assert len(cache) == 4


def test_the_key_caches_are_bounded_and_reuse_a_parsed_key(keypool):
    private_pem, public_pem = keypool[0]
    for cached, pem in ((tokens._private_key_obj, private_pem), (tokens._public_key_obj, public_pem)):
        assert cached.cache_info().maxsize == tokens.KEY_CACHE_LIMIT
        assert cached(pem) is cached(pem)


def test_a_replayed_refresh_token_is_reused_even_when_its_verify_is_cached(site, verified):
    forge, registry, _, now = site
    _, checks = verified
    pair = forge.issue_service_tokens("jobs", b"jobs-pw", "prime", ["prime"])["prime"]
    verify(pair.refresh, registry, clock=lambda: now[0])
    forge.refresh(pair.refresh)
    with pytest.raises(ReusedToken):
        forge.refresh(pair.refresh)
    assert checks == [pair.refresh]  # both refreshes verified from the cache


def test_verify_from_many_threads_over_more_tokens_than_the_bound(site, monkeypatch):
    forge, registry, _, now = site
    monkeypatch.setattr(tokens, "_verified", tokens._VerifiedTokens(8))
    issued = [(f"u{i}@tenant1", forge.issue_user_token(AUTHENTICATOR, "tenant1", f"u{i}"))
              for i in range(32)]
    errors = []
    start = threading.Barrier(12)

    def worker(offset):
        try:
            start.wait(timeout=10)
            for k in range(300):
                sub, token = issued[(offset * 7 + k) % len(issued)]
                assert verify(token, registry, clock=lambda: now[0]).sub == sub
                assert len(tokens._verified) <= 8
        except BaseException as exc:  # reported below, in the test's own thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
