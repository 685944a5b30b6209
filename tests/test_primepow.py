"""Prime-power order and bracket-product tests.

The oracle here recomputes everything per definition: primes by sieve,
[[log_p x]] by direct Fraction comparisons, phi as the literal product over
primes. The library's table-based implementation must match exactly.
"""
import bisect
import hashlib
import math
import random
import sys
import threading
import time
from array import array
from fractions import Fraction as F
from itertools import accumulate

import pytest

from adelic import primepow as pp
from adelic import (
    PrimePower,
    bracket_log,
    double_bracket,
    log_phi,
    next_pp,
    phi,
    pp_range,
    prev_pp,
)

# ---- frozen expected values ----
PHI_10 = F(2520)
PHI_THIRD = F(1, 2)
PHI_QUARTER = F(1, 6)
NEXT_5 = F(7)
NEXT_HALF = F(2)
PREV_2 = F(1, 2)
PREV_THIRD = F(1, 4)
RANGE_2_9 = [F(3), F(4), F(5), F(7), F(8), F(9)]


def primes_upto(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def bracket_oracle(p, x):
    """[[log_p x]] straight from the definition, exact comparisons only."""
    x = F(x)
    if x >= 1:
        a = 0
        while F(p) ** (a + 1) <= x:
            a += 1
        return a  # floor(log_p x) >= 0
    a = 0
    while F(p) ** a > x:
        a -= 1
    return a + 1  # floor + 1 on the negative side


def phi_oracle(x):
    """Literal product prod_p p^[[log_p x]] over the finitely many
    contributing primes."""
    x = F(x)
    bound = int(x) + 1 if x >= 1 else int(1 / x) + 1
    out = F(1)
    for p in primes_upto(bound):
        e = bracket_oracle(p, x)
        if e:
            out *= F(p) ** e
    return out


def all_int_prime_powers(limit):
    out = []
    for p in primes_upto(limit):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


class TestFrozenExamples:
    def test_phi_examples(self):
        assert phi(10) == PHI_10 == phi_oracle(10)
        assert phi(F(1, 3)) == PHI_THIRD == phi_oracle(F(1, 3))
        assert phi(F(1, 4)) == PHI_QUARTER == phi_oracle(F(1, 4))
        assert phi(2) == 2 and phi(F(1, 2)) == 1 and phi(1) == 1

    def test_successor_examples(self):
        assert next_pp(5).value == NEXT_5
        assert next_pp(F(1, 2)).value == NEXT_HALF
        assert prev_pp(2).value == PREV_2
        assert prev_pp(F(1, 3)).value == PREV_THIRD

    def test_range_example(self):
        assert [v.value for v in pp_range(2, 9)] == RANGE_2_9


class TestDoubleBracket:
    @pytest.mark.parametrize(
        "t,expect",
        [(0, 0), (1, 1), (F(3, 2), 1), (2, 2), (-1, 0), (F(-1, 2), 0),
         (F(-3, 2), -1), (-2, -1), (F(-5, 2), -2), (0.75, 0), (-0.75, 0)],
    )
    def test_values(self, t, expect):
        assert double_bracket(t) == expect

    def test_zero_band(self):
        # [[t]] == 0 exactly on (-1, 1)
        for num in range(-99, 100):
            assert double_bracket(F(num, 100)) == 0
        assert double_bracket(1) == 1
        assert double_bracket(-1) == 0


class TestBracketLog:
    def test_against_oracle(self):
        rng = random.Random(7)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(300):
            p = rng.choice(primes)
            x = F(rng.randint(1, 4000), rng.randint(1, 4000))
            assert bracket_log(p, x) == bracket_oracle(p, x)

    def test_boundaries(self):
        assert bracket_log(2, F(1, 8)) == -2
        assert bracket_log(2, F(1, 2)) == 0
        assert bracket_log(3, F(1, 3)) == 0
        assert bracket_log(3, F(1, 4)) == -1
        assert bracket_log(2, 8) == 3
        assert bracket_log(2, F(15, 2)) == 2


class TestOrderAxioms:
    def test_successor_inverses_to_1e5(self):
        # prev(next(n)) == n and next(prev(n)) == n for every prime power
        # n <= 1e5, plus the reciprocal duality (n+)^-1 == (n^-1)-
        for n in all_int_prime_powers(100_000):
            v = F(n)
            up = next_pp(v).value
            dn = prev_pp(v).value
            assert prev_pp(up).value == v
            assert next_pp(dn).value == v
            assert 1 / up == prev_pp(1 / v).value
            assert 1 / dn == next_pp(1 / v).value

    def test_no_prime_power_in_gap(self):
        assert pp_range(F(1, 2), F(199, 100)) == []
        assert next_pp(F(1, 2)).value == 2
        assert prev_pp(F(199, 100)).value == F(1, 2)

    def test_from_non_prime_power_points(self):
        assert next_pp(6).value == 7
        assert prev_pp(6).value == 5
        assert next_pp(F(1, 6)).value == F(1, 5)
        assert prev_pp(F(1, 6)).value == F(1, 7)
        assert next_pp(F(10, 3)).value == 4
        assert prev_pp(F(10, 3)).value == 3

    def test_accepts_floats_and_prime_powers(self):
        assert next_pp(5.0) == PrimePower(7, 1)
        assert next_pp(PrimePower(2, -1)) == PrimePower(2, 1)
        assert prev_pp(PrimePower(2, 1)) == PrimePower(2, -1)

    def test_range_reciprocal_branch(self):
        vals = [v.value for v in pp_range(F(1, 8), F(1, 2))]
        assert vals == [F(1, 7), F(1, 5), F(1, 4), F(1, 3), F(1, 2)]
        # (a, b] is half-open on the left
        assert F(1, 8) not in vals
        both = [v.value for v in pp_range(F(1, 3), 3)]
        assert both == [F(1, 2), F(2), F(3)]


class TestPhi:
    def test_against_oracle_integers(self):
        for n in range(1, 300):
            assert phi(n) == phi_oracle(n), n

    def test_against_oracle_fractions(self):
        rng = random.Random(11)
        for _ in range(200):
            x = F(rng.randint(1, 500), rng.randint(1, 500))
            assert phi(x) == phi_oracle(x), x

    def test_reciprocal_identity(self):
        # phi(p^-j) = p / phi(p^j)
        for n in all_int_prime_powers(2000):
            p = pp.prime_power_pairs(n)[0]
            assert phi(F(1, n)) == F(p) / phi(n)

    def test_predecessor_identity(self):
        # phi(prev_pp(p^k)) = phi(p^k) / p
        for n in all_int_prime_powers(2000):
            p = pp.prime_power_pairs(n)[0]
            assert phi(prev_pp(n).value) == phi(n) / p

    def test_piecewise_constant_between_jumps(self):
        for n in all_int_prime_powers(500):
            up = next_pp(n).value
            assert phi((F(n) + up) / 2) == phi(n)  # interior of [n, next)

    def test_monotone(self):
        vals = [phi(x) for x in [F(1, 9), F(1, 3), F(1, 2), 1, 2, 3, 10, 100]]
        assert vals == sorted(vals)

    def test_chebyshev_psi_crosscheck(self):
        # log phi(x) == psi(x) = sum_{p^k <= x} log p, relative 1e-12
        xs = [2, 3, 10, 97, 1000, 9973, 10_000]
        for x in xs:
            psi = math.fsum(
                math.log(p)
                for p in primes_upto(x)
                for _ in range(bracket_oracle(p, F(x)))
            )
            got = log_phi(x)
            assert abs(got - psi) <= 1e-12 * psi
            exact = phi(x)
            assert abs(math.log(exact.numerator) - psi) <= 1e-12 * psi

    def test_effective_chebyshev_bound(self):
        # phi(x) <= exp(1.04 x) over the table range
        for n in all_int_prime_powers(100_000):
            assert log_phi(n) <= 1.04 * n


class TestRankIndex:
    def test_rank_convention(self):
        values = [pp._TABLE.at(r).value for r in range(-4, 4)]
        assert values == [F(1, 5), F(1, 4), F(1, 3), F(1, 2), 2, 3, 4, 5]
        assert pp._TABLE.rank_floor(F(2)) == 0
        assert pp._TABLE.rank_floor(F(1)) == -1
        assert pp._TABLE.rank_floor(F(1, 2)) == -1
        assert pp._TABLE.rank_floor(F(49, 100)) == -2

    def test_cold_successor_sieves_once(self, monkeypatch):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        assert next_pp(10**6) == PrimePower(1_000_003, 1)
        assert pp._TABLE._limit <= 2 * (10**6 + 1)

    def test_order_queries_run_no_primality_test(self, monkeypatch):
        tests = []
        is_prime = pp.is_prime

        def counted(n):
            tests.append(n)
            return is_prime(n)

        monkeypatch.setattr(pp, "is_prime", counted)
        for x in (F(1, 1000), F(1, 3), F(1, 2), 1, 2, 10, 1009, F(10**5, 7)):
            next_pp(x)
            prev_pp(x)
            pp_range(F(1, 50), x)
        assert tests == []

    def test_log_phi_reciprocal_radii_frozen(self):
        # log(base(m)) - log phi(m), frozen as floats: the rank index must
        # not move them
        assert log_phi(F(1, 2)) == 0.0
        assert log_phi(F(1, 3)) == -0.6931471805599452
        assert log_phi(F(1, 4)) == -1.791759469228055
        assert log_phi(F(1, 1024)) == -1024.3734136231653
        assert log_phi(F(1, 1009)) == -996.6809122471755


class TestPrimePowerType:
    def test_ordering_and_hash(self):
        a = PrimePower(2, 1)
        b = PrimePower(3, 1)
        assert a < b and a <= b and b > a and a != b
        assert a == F(2) and hash(a) == hash(F(2))
        assert PrimePower(2, -2) < PrimePower(3, -1)

    def test_exponent_zero_rejected(self):
        with pytest.raises(ValueError):
            PrimePower(2, 0)
        with pytest.raises(ValueError):
            PrimePower(6, 1)

    def test_from_value(self):
        assert PrimePower.from_value(8) == PrimePower(2, 3)
        assert PrimePower.from_value(F(1, 9)) == PrimePower(3, -2)
        with pytest.raises(ValueError):
            PrimePower.from_value(6)
        with pytest.raises(ValueError):
            PrimePower.from_value(1)

    def test_as_fraction_passes_a_positive_fraction_through(self):
        half = F(1, 2)
        assert pp.as_fraction(half) is half
        assert pp.as_fraction(0.5) == pp.as_fraction(PrimePower(2, -1)) == half
        for bad in (F(0), F(-1, 2), 0, -2, -0.5):
            with pytest.raises(ValueError, match="positive rational"):
                pp.as_fraction(bad)

    def test_is_prime(self):
        assert pp.is_prime(2) and pp.is_prime(97) and pp.is_prime(2**31 - 1)
        assert not pp.is_prime(1) and not pp.is_prime(561)


class TestConcurrentExtension:
    def test_parallel_readers_during_growth(self):
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(60):
                    n = rng.randint(2, 200_000)
                    up = next_pp(n)
                    assert up.value > n
                    assert prev_pp(up.value).value <= n
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_parallel_memo_checkpoint_and_log_reads(self, monkeypatch):
        # readers of the rank memos, the exact cache, the checkpoints and
        # the snapshot's log columns on a fresh table, which they grow
        # while they read
        ref = pp._PowerTable()
        values, bases, _, ref_logphi, _ = ref.extend_to(120_000)
        rng = random.Random(7)
        ranks = rng.sample(range(-len(values), len(values)), 300)
        want = {}
        acc = 1
        for i, p in enumerate(bases):
            acc *= p
            for k in (i, -1 - i):
                if k in ranks:
                    want[k] = (F(values[i]) if k >= 0 else F(1, values[i]),
                               F(acc) if k >= 0 else F(p, acc))
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        errors = []

        def worker(seed):
            order = random.Random(seed).sample(ranks, len(ranks))
            try:
                for k in order:
                    i = k if k >= 0 else -1 - k
                    assert table.fraction_at(k) == want[k][0]
                    assert table.phi_at(k) == want[k][1]
                    table._index(k)
                    logphi, logp = table._snapshot[3:]
                    assert logp[i] == math.log(bases[i])
                    assert logphi[i] == ref_logphi[i]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]


def trial_division_prime_power(n):
    """(p, a) with p^a = n by trial division, or None."""
    p = next(f for f in range(2, n + 1) if n % f == 0)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return (p, a) if n == 1 else None


class TestSieveCap:
    def test_request_past_cap_raises_before_sieving(self):
        limit = pp._TABLE._limit
        with pytest.raises(ValueError, match="capped at 2\\^26"):
            pp._TABLE.extend_to(pp._SIEVE_CAP + 1)
        assert pp._TABLE._limit == limit

    def test_doubling_clamped_to_cap(self, monkeypatch):
        monkeypatch.setattr(pp, "_SIEVE_CAP", 3000)
        table = pp._PowerTable()
        table.extend_to(2000)
        assert table._limit == 2000
        # doubling would reach 4000; a request at or below the cap succeeds
        table.extend_to(2500)
        assert table._limit == 3000
        assert table._snapshot[0][-1] == 2999
        # a rank walk past the last row stops at the cap instead of looping
        with pytest.raises(ValueError):
            table.at(len(table._snapshot[0]))
        assert table._limit == 3000


    def test_values_up_to_the_cap_are_ranked(self, monkeypatch):
        # rank_floor sieves only to floor(x) or ceil(1/x), so every prime
        # power up to the cap has a rank, phi and log phi; the row past
        # the cap is refused only when it is read
        cap = 2 ** 12
        monkeypatch.setattr(pp, "_SIEVE_CAP", cap)
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        values, bases, _ = trial_division_table(cap)
        top = len(values) - 1
        assert values[top] == cap
        first = bisect.bisect_right(values, cap / 1.2)
        for j in range(first, top + 1):
            q = values[j]
            assert pp._TABLE.rank_of(F(q)) == j
            assert pp._TABLE.rank_of(F(1, q)) == -1 - j
            exact = math.prod(bases[: j + 1])
            assert phi(q) == exact
            assert phi(F(1, q)) == F(bases[j], exact)
            assert math.isclose(log_phi(q), math.log(exact), rel_tol=1e-12)
        assert pp._TABLE.rank_floor(F(cap - 1)) == top - 1
        assert pp._TABLE.rank_floor(F(1, cap - 1)) == -1 - top
        assert pp._TABLE._limit == cap
        with pytest.raises(ValueError, match="capped at 2\\^26"):
            pp._TABLE.float_at(top + 1)

    def test_row_past_the_table_is_read_after_sieving(self, monkeypatch):
        # 1/4096 is the largest prime power <= 1/4095; a fresh table sieved
        # to 4095 does not hold its row until the accessor sieves it
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        rank = pp._TABLE.rank_floor(F(1, 4095))
        assert pp._TABLE._limit == 4095
        assert pp._TABLE.fraction_at(rank) == F(1, 4096)
        for read in ("rank_of", "fraction_at", "float_at", "base_at"):
            table = pp._PowerTable()
            table.extend_to(4095)
            arg = F(1, 4096) if read == "rank_of" else rank
            assert getattr(table, read)(arg) == {
                "rank_of": rank, "fraction_at": F(1, 4096),
                "float_at": 1 / 4096, "base_at": 2,
            }[read]


class TestHugePrimePowers:
    @pytest.mark.parametrize("x,expect", [
        (2**61 - 1, (2**61 - 1, 1)),
        (3**40, (3, 40)),
        (F(1, 2**61 - 1), (2**61 - 1, -1)),
        ((2**31 - 1) * 1_073_741_827, None),  # composite near 2^61
    ])
    def test_answered_fast_without_sieving(self, x, expect):
        limit = pp._TABLE._limit
        start = time.perf_counter()
        assert pp.is_prime_power(x) == (expect is not None)
        if expect is not None:
            assert pp.prime_power_pairs(x) == expect
        assert time.perf_counter() - start < 1.0
        assert pp._TABLE._limit == limit

    def test_table_and_root_paths_match_trial_division(self):
        pp._TABLE.extend_to(5000)
        for n in range(2, 5001):
            want = trial_division_prime_power(n)
            assert pp._as_prime_power(F(n)) == want, n
            assert pp._root_prime_power(n) == want, n

    def test_root_test_matches_the_all_exponents_loop(self):
        # the loop that tried the a-th root for every a below n's bit
        # length, before the witness primes were divided out first
        def reference(n):
            for a in range(1, n.bit_length()):
                r = pp._iroot(n, a)
                if r ** a == n and pp.is_prime(r):
                    return r, a
            return None

        rng = random.Random(21)
        big = pp._MR_EXACT_BELOW
        # n up to 5000 is checked against trial division above
        ns = [rng.randrange(2, big) for _ in range(200)]
        ns += [int(math.exp(rng.uniform(0.0, math.log(big))))
               for _ in range(400)]
        for _ in range(300):  # prime powers, witness multiples, near-powers
            p = rng.randrange(2, 10**6)
            while not pp.is_prime(p):
                p += 1
            k = rng.randrange(1, max(2, int(math.log(big, p))))
            q = rng.choice(pp._MR_WITNESSES)
            ns += [p ** k, p ** k + rng.choice((-1, 1)), q * p ** k,
                   q ** rng.randrange(1, 40) * rng.choice((1, p))]
        ns = [n for n in ns if 2 <= n < big]
        assert len(ns) > 1500
        for n in ns:
            assert pp._root_prime_power(n) == reference(n), n

    @pytest.mark.parametrize("n,want", [
        (43**2400, (43, 2400)),
        ((47**3)**5, (47, 15)),
        ((10**9 + 7)**2 * 998244353**2, None),  # two distinct prime squares
    ])
    def test_huge_powers_rooted_by_prime_exponents(self, n, want):
        # the root test once took a root for every a with 43^a <= n:
        # 19 s for 43^2400
        start = time.perf_counter()
        assert pp._root_prime_power(n) == want
        assert time.perf_counter() - start < 0.5

    def test_undecidable_primality_raises(self):
        m89 = 2**89 - 1  # a Mersenne prime above the exact Miller-Rabin range
        for x in (m89, m89**2, F(1, m89)):
            with pytest.raises(ValueError, match="cannot decide"):
                pp.is_prime_power(x)
        # composite verdicts stay exact above that range
        assert pp.prime_power_pairs(2**100) == (2, 100)
        assert not pp.is_prime_power(2 * m89)
        assert not pp.is_prime_power(F(1, 6 * m89))

    def test_is_prime_exact_below_its_range(self):
        # the least strong pseudoprime to the bases 2..37
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not pp.is_prime(n)
        assert not pp.is_prime_power(n)
        assert pp.is_prime(2**89 - 1)


def trial_division_table(limit):
    """(values, bases, exps) of the integer prime powers <= limit, from
    trial division alone."""
    rows = []
    for n in range(2, limit + 1):
        pk = trial_division_prime_power(n)
        if pk is not None:
            rows.append((n, *pk))
    return tuple(zip(*rows))


# sha256 of repr(values), repr(bases), repr(exps) and the float.hex of
# every logphi entry of the table sieved to 2^21, frozen from the
# per-integer sieve it replaced
TABLE_2_21_SHA256 = (
    "acc23e81f66fc36e21829f868a26334ae847aca30c32086cddee238b23dec089"
)


class TestTableBuild:
    def test_every_bound_to_5000_matches_trial_division(self):
        values, bases, exps = trial_division_table(5000)
        for n in range(2, 5001):
            i = bisect.bisect_right(values, n)
            want = (values[:i], bases[:i], exps[:i])
            assert pp._prime_powers_upto(n) == want, n
            table = pp._PowerTable()
            table.extend_to(n)
            j = bisect.bisect_right(values, table._limit)
            assert table._snapshot[:3] == (values[:j], bases[:j], exps[:j]), n

    def test_table_at_2_21_frozen(self):
        table = pp._PowerTable()
        table.extend_to(1 << 21)
        assert table._limit == 1 << 21
        values, bases, exps, logphi, _ = table._snapshot
        digest = hashlib.sha256()
        for part in (values, bases, exps, [x.hex() for x in logphi]):
            digest.update(repr(part).encode())
        assert digest.hexdigest() == TABLE_2_21_SHA256

    def test_cold_successor_sieves_to_six_fifths(self, monkeypatch):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        assert next_pp(10**6) == PrimePower(1_000_003, 1)
        assert pp._TABLE._limit == 512

    def test_successor_needs_no_doubled_sieve(self, monkeypatch):
        # a sieve to twice the query (4802) would pass this cap
        monkeypatch.setattr(pp, "_SIEVE_CAP", 3000)
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        assert next_pp(2400) == PrimePower(7, 4)
        assert next_pp(2401) == PrimePower(2411, 1)
        assert pp._TABLE._limit <= 3000


def reference_prime_powers(limit):
    """Every integer prime power <= limit, ascending, from primes_upto."""
    primes = primes_upto(limit)
    found = set(primes)
    for p in primes[: bisect.bisect_right(primes, math.isqrt(limit))]:
        q = p * p
        while q <= limit:
            found.add(q)
            q *= p
    return sorted(found)


@pytest.fixture(scope="module")
def reference_order():
    """(next, prev) over all prime powers and their reciprocals, straight
    from the definition: the least element above x, the greatest below."""
    ref = reference_prime_powers(3_100_000)

    def above(x):
        if x >= 1:
            return F(ref[bisect.bisect_right(ref, x)])
        i = bisect.bisect_left(ref, 1 / x)  # 1/v > x iff v < 1/x
        return F(1, ref[i - 1]) if i else F(2)

    def below(x):
        if x > 1:
            i = bisect.bisect_left(ref, x)
            return F(ref[i - 1]) if i else F(1, 2)
        return F(1, ref[bisect.bisect_right(ref, 1 / x)])

    return above, below


class TestWindowedOrderQueries:
    """Order queries past the table test the integers next to the query
    in turn, without sieving; a fresh table (rows up to 512) sends most
    of these queries there."""

    def test_every_integer_and_reciprocal_to_5000(self, monkeypatch,
                                                    reference_order):
        above, below = reference_order
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        for n in range(1, 5001):
            for x in (F(n), F(1, n)):
                assert next_pp(x) == above(x), x
                assert prev_pp(x) == below(x), x

    def test_seeded_points_to_3e6(self, monkeypatch, reference_order):
        above, below = reference_order
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        rng = random.Random(1952)
        for _ in range(200):
            n = rng.randint(2, 3_000_000)
            frac = F(rng.randint(1, 6), 7)
            for x in (F(n), F(1, n), n + frac, 1 / (n + frac)):
                assert next_pp(x) == above(x), x
                assert prev_pp(x) == below(x), x

    @pytest.mark.parametrize("query,want", [
        (lambda: next_pp(10**6), F(1_000_003)),
        (lambda: prev_pp(F(1, 10**6)), F(1, 1_000_003)),
    ], ids=["next", "prev"])
    def test_cold_query_sieves_only_to_the_root(self, monkeypatch, query,
                                                want):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        assert query() == want
        assert pp._TABLE._limit == 512

    def test_successor_far_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        start = time.perf_counter()
        got = next_pp(10**12)
        assert time.perf_counter() - start < 1.0
        assert (got.p, got.k) == (10**12 + 39, 1)

    @pytest.mark.parametrize("n,after,before", [
        (10**15, 10**15 + 37, 10**15 - 11),
        (10**18, 10**18 + 3, 10**18 - 11),
        (10**21, 10**21 + 117, 10**21 - 101),
    ])
    def test_primes_next_to_huge_queries(self, monkeypatch, n, after,
                                         before):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        for query, want in ((lambda: next_pp(n), PrimePower(after, 1)),
                            (lambda: prev_pp(n), PrimePower(before, 1)),
                            (lambda: next_pp(F(1, n)), PrimePower(before, -1)),
                            (lambda: prev_pp(F(1, n)), PrimePower(after, -1))):
            start = time.perf_counter()
            assert query() == want
            assert time.perf_counter() - start < 1.0
        assert pp._TABLE._limit == 512

    @pytest.mark.parametrize("query,want", [
        (lambda: next_pp(2**60 - 1), PrimePower(2, 60)),
        (lambda: prev_pp(3**40 + 1), PrimePower(3, 40)),
        (lambda: prev_pp(F(1, 2**60 - 1)), PrimePower(2, -60)),
        (lambda: next_pp(F(1, 3**40 + 1)), PrimePower(3, -40)),
    ], ids=["next-2^60", "prev-3^40", "prev-2^-60", "next-3^-40"])
    def test_higher_power_answers(self, monkeypatch, query, want):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        start = time.perf_counter()
        got = query()
        assert time.perf_counter() - start < 1.0
        assert (got.p, got.k) == (want.p, want.k)
        assert pp._TABLE._limit == 512

    @pytest.mark.parametrize("query", [
        lambda: next_pp(10**25),
        lambda: prev_pp(10**4000),
        lambda: next_pp(F(1, 10**4000)),
    ], ids=["next-1e25", "prev-1e4000", "next-1e-4000"])
    def test_refused_past_exact_primality(self, monkeypatch, query):
        monkeypatch.setattr(pp, "_TABLE", pp._PowerTable())
        start = time.perf_counter()
        with pytest.raises(ValueError, match="primality is exact"):
            query()
        assert time.perf_counter() - start < 0.1
        assert pp._TABLE._limit == 512


class TestRankOf:
    def test_matches_rank_floor_on_prime_powers(self):
        values = [m for m, _, _ in pp.iter_int_prime_powers(5000)]
        for i, m in enumerate(values):
            for x in (F(m), F(1, m)):
                assert pp._TABLE.rank_of(x) == pp._TABLE.rank_floor(x)
            assert pp._TABLE.rank_of(F(m)) == i
            assert pp._TABLE.rank_of(F(1, m)) == -1 - i

    @pytest.mark.parametrize("x", [F(1), F(6), F(5, 3), F(1, 6), F(12, 5)])
    def test_rejects_non_prime_powers(self, x):
        with pytest.raises(ValueError, match=f"^{x} is not a prime power$"):
            pp._TABLE.rank_of(x)


def assert_same_float(phi_float_at, phi_at, k):
    """phi_float_at(k) is float(phi_at(k)): the same float, or the same
    OverflowError past the double range."""
    try:
        want = float(phi_at(k))
    except OverflowError:
        with pytest.raises(OverflowError):
            phi_float_at(k)
        return
    assert phi_float_at(k) == want


class TestRankMemos:
    """The table's per-rank memos and log columns return what the
    unmemoized reads return, and a long walk leaves each at its bound."""

    def test_memos_match_fresh_reads(self, monkeypatch):
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        values, bases, _, _, _ = table.extend_to(2 * pp._EXACT_CACHE_LIMIT)
        exact = 1
        for i in range(2500):  # past the memos' rows too
            exact *= bases[i]
            for k, value, phi_k in ((i, F(values[i]), F(exact)),
                                    (-1 - i, F(1, values[i]),
                                     F(bases[i], exact))):
                for _ in range(2):  # a miss, then a hit
                    assert table.fraction_at(k) == value
                    assert table.phi_at(k) == phi_k
                    assert_same_float(table.phi_float_at, table.phi_at, k)

    def test_phi_float_past_the_cache(self):
        for x in (F(700), F(720), F(1, 700), F(1, 720), F(40000),
                  F(1, 40000)):
            k = pp._TABLE.rank_floor(x)
            assert_same_float(pp._TABLE.phi_float_at, pp._TABLE.phi_at, k)

    def test_row_logs_are_the_same_floats(self):
        # both float columns are double arrays from one log pass over the
        # bases: log p row by row, and log phi its running sum, bit for bit
        table = pp._PowerTable()
        _, bases, _, logphi, logp = table.extend_to(20000)
        for column in (logphi, logp):
            assert isinstance(column, array)
            assert column.typecode == "d" and column.itemsize == 8
            assert len(column) == len(bases)
        for i, p in enumerate(bases):
            assert logp[i] == math.log(p)
        assert [x.hex() for x in logphi] == \
            [x.hex() for x in accumulate(logp)]

    def test_cached_row_read_without_the_lock(self, monkeypatch):
        class Refuse:
            def __enter__(self):
                raise AssertionError("lock taken")

            def __exit__(self, *exc):
                return False

        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        want = phi(F(5000))
        monkeypatch.setattr(table, "_exact_lock", Refuse())
        assert phi(F(5000)) == want
        assert table._exact_phi(pp._TABLE.rank_floor(F(4999))) \
            == want.numerator

    def test_walk_of_1e5_ranks_leaves_each_memo_at_its_bound(
            self, monkeypatch):
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        n = 50_000  # ranks -n..n-1
        for k in range(-n, n):
            table.fraction_at(k)
        values = table._snapshot[0]
        rows = bisect.bisect_right(values, pp._EXACT_CACHE_LIMIT)
        assert len(table._fractions) == 2 * rows
        # phi at every rank of the cache's rows and at every 97th rank
        # past them; past the bit cap each is refused
        refused = 0
        for k in [*range(-rows, rows), *range(rows, n, 97),
                  *range(-rows - 1, -n, -97)]:
            try:
                table.phi_at(k)
            except ValueError:
                refused += 1
        assert refused > 0
        assert len(table._phis) == 2 * rows
        assert len(table._exact) == rows
        # checkpoints stop below the last row under the cap
        logphi, logp = table._snapshot[3:]
        last = bisect.bisect_right(logphi, pp._PHI_BITS_CAP * math.log(2))
        assert len(table._checkpoints) <= last // pp._PHI_STRIDE + 1
        assert max(c.bit_length() for c in table._checkpoints) \
            <= pp._PHI_BITS_CAP + 1
        assert n <= len(logp) == len(logphi) == len(values)


class TestExactPhiCheckpoints:
    def test_equal_to_the_serial_product(self, monkeypatch):
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        values, bases, _, logphi, _ = table.extend_to(200_000)
        last = bisect.bisect_right(logphi, pp._PHI_BITS_CAP * math.log(2))
        stride = pp._PHI_STRIDE
        rng = random.Random(19)
        rows = {stride * c + d for c in range(1, last // stride)
                for d in (-1, 0, 1)}
        rows.update(rng.sample(range(last), 60))
        rows.add(last - 1)
        acc = 1
        for i, p in enumerate(bases[:last]):
            acc *= p
            if i in rows:
                assert table._exact_phi(i) == acc, i
                assert table.phi_at(-1 - i) == F(p, acc)
        with pytest.raises(ValueError, match=r"cap of 2\^18 bits"):
            table._exact_phi(last)

    def test_a_call_multiplies_at_most_a_stride(self, monkeypatch):
        k = pp._TABLE.rank_floor(F(10**5))
        pp._TABLE.phi_at(k + 1000)  # checkpoints to past the rank
        lengths = []
        prod = math.prod

        def counted(items):
            items = list(items)
            lengths.append(len(items))
            return prod(items)

        monkeypatch.setattr(math, "prod", counted)
        for rank in (k, k + 1, -1 - k, k + 255):
            lengths.clear()
            pp._TABLE._exact_phi(rank if rank >= 0 else -1 - rank)
            assert lengths and max(lengths) < pp._PHI_STRIDE
        monkeypatch.setattr(math, "prod", prod)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            pp._TABLE.phi_at(k + 7)
            pp._TABLE.phi_at(-8 - k)
            times.append(time.perf_counter() - start)
        assert sorted(times)[2] < 0.01  # a serial walk took about 60 ms


class TestPhiRefusedBeforeSieving:
    @pytest.mark.parametrize("x", [F(9999991), F(10000019), F(1, 9999991),
                                   F(2 * 10**6 + 1, 3), F(1, 190000)])
    def test_refused_on_a_fresh_table(self, monkeypatch, x):
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=r"^phi of .* past the cap of 2\^18 bits$"):
            phi(x)
        assert time.perf_counter() - start < 0.1
        assert table._limit == 512

    def test_volume_refused_on_a_fresh_table(self, monkeypatch, capsys):
        from adelic import cli

        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        for radius in ("10000019", "1/9999991"):
            assert cli.main(["volume", "sphere", radius]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid parameters: phi of ")
            assert "past the cap of 2^18 bits" in err
        assert table._limit == 512

    def test_no_admitted_radius_is_refused(self):
        # the bound grows with n: find the least n it refuses
        def refused(n):
            try:
                pp._refuse_phi_past_cap(F(n))
            except ValueError:
                return True
            return False

        lo, hi = 563, pp._SIEVE_CAP
        assert not refused(lo) and refused(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if refused(mid) else (mid, hi)
        assert not refused(F(1, lo))
        assert not refused(F(lo) + F(1, 2))
        assert refused(F(1, hi))
        # the table refuses phi at hi and at 1/hi on its own: their rows'
        # log phi is past the cap
        cap_ln = pp._PHI_BITS_CAP * math.log(2)
        for x in (F(hi), F(1, hi)):
            i = pp._TABLE._index(pp._TABLE.rank_floor(x))
            assert pp._TABLE._snapshot[3][i] > cap_ln
            with pytest.raises(ValueError, match="cap"):
                pp._TABLE._exact_phi(i)
        assert hi < 190_000
