"""Fixed pure-Python reference work that measures how fast the machine runs now.

The benchmark runs it in a fresh interpreter between jobs and scales the
times of a run by the reference's nominal time over its measured time.  It
does what tcsurf spends its time on: dict updates keyed by small tuples,
sorting, Fraction sums and big-int bit operations on a cache-sized working
set, and random lookups in a dict of some 45 MB, which feel memory and
cache contention as the large models do.
"""

from fractions import Fraction


def small_work(rounds: int = 3) -> int:
    total = 0
    for _ in range(rounds):
        acc = {}
        for i in range(20000):
            key = tuple(sorted((i % 17, (i * 7) % 23, (i * 13) % 29)))
            acc[key] = acc.get(key, 0) ^ (i * 2654435761 & 0xFFFF)
        frac = Fraction(0)
        for i in range(1, 1500):
            frac += Fraction((i * 31) % 97 - 48, i % 41 + 1)
        bits = 0
        for i in range(20000):
            bits ^= (i * 40503) << (i % 61)
        total += len(acc) + frac.numerator % 7 + bits.bit_length()
    return total


def large_work(n: int = 200_000, lookups: int = 250_000) -> int:
    table = {(i, i * 7 % 1009): i for i in range(n)}
    x, acc = 12345, 0
    for _ in range(lookups):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i = x % n
        acc ^= table[(i, i * 7 % 1009)]
    return acc


if __name__ == "__main__":
    print(small_work() + large_work())
