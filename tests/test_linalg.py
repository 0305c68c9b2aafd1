import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from tcsurf.fields import GF2, QQ
from tcsurf.linalg import (Gf2Subspace, RationalSubspace, echelonize,
                           kernel_basis, new_subspace)

from .oracles import gf2_rank, rational_rank, rref_gf2, rref_rational


def rand_rows(rng, nrows, ncols, density=0.5, char=0):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = rng.randint(1, 1) if char == 2 else Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3))
        rows.append({j: v for j, v in row.items() if v})
    return rows


def test_rational_rank_matches_sympy():
    rng = random.Random(101)
    for trial in range(12):
        ncols = rng.randint(2, 7)
        rows = rand_rows(rng, rng.randint(1, 8), ncols)
        got = echelonize(QQ, ncols, rows).rank
        assert got == rational_rank(rows, ncols), (trial, rows)


def test_gf2_rank_matches_naive_elimination():
    rng = random.Random(77)
    for trial in range(12):
        ncols = rng.randint(2, 9)
        rows = rand_rows(rng, rng.randint(1, 10), ncols, char=2)
        got = echelonize(GF2, ncols, rows).rank
        assert got == gf2_rank(rows, ncols), (trial, rows)


def test_rank_is_insertion_order_invariant():
    rng = random.Random(5)
    ncols = 6
    rows = rand_rows(rng, 9, ncols)
    base = echelonize(QQ, ncols, rows)
    for _ in range(5):
        rng.shuffle(rows)
        again = echelonize(QQ, ncols, rows)
        assert again.rank == base.rank
        assert again == base  # same subspace, not just same rank


def test_reinsertion_is_idempotent():
    sub = RationalSubspace(4)
    v = {0: Fraction(2), 2: Fraction(-1)}
    assert sub.insert(dict(v))
    assert not sub.insert({0: Fraction(4), 2: Fraction(-2)})  # scalar multiple
    assert sub.rank == 1


def test_contains_and_reduce():
    sub = RationalSubspace(3)
    sub.insert({0: Fraction(1), 1: Fraction(1)})
    sub.insert({1: Fraction(1), 2: Fraction(1)})
    sub.finalize()
    assert not sub.reduce({0: Fraction(1), 2: Fraction(-1)})
    assert sub.reduce({0: Fraction(1)})
    res = sub.reduce({0: Fraction(1), 1: Fraction(1), 2: Fraction(5)})
    assert res  # nonzero residue
    assert sub.reduce({0: Fraction(2), 1: Fraction(2)}) == {}


def test_rows_rref_pivot_columns_are_cleared():
    sub = RationalSubspace(4)
    sub.insert({0: Fraction(2), 1: Fraction(4)})
    sub.insert({0: Fraction(1), 1: Fraction(3), 3: Fraction(1)})
    sub.finalize()
    rows = sub.rows_rref()
    pivots = sub.pivots
    for p, row in zip(pivots, rows):
        assert row[p] == Fraction(1)
        for q in pivots:
            if q != p:
                assert q not in row


def test_gf2_subspace_basics():
    sub = Gf2Subspace(3)
    assert sub.insert({0: 1, 1: 1})
    assert sub.insert({1: 1, 2: 1})
    assert not sub.insert({0: 1, 2: 1})  # sum of the first two
    assert sub.rank == 2
    assert not sub.reduce({0: 1, 1: 1})


def test_kernel_basis_annihilates_and_has_right_dimension():
    rng = random.Random(13)
    for field, char in ((QQ, 0), (GF2, 2)):
        for trial in range(8):
            nin = rng.randint(1, 6)
            nout = rng.randint(1, 6)
            images = rand_rows(rng, nin, nout, char=char)
            kers = kernel_basis(field, images, nout)
            image_rank = echelonize(field, nout, images).rank
            assert len(kers) == nin - image_rank
            for k in kers:
                acc = {}
                for i, c in k.items():
                    for j, v in images[i].items():
                        acc[j] = field.add(acc.get(j, field.zero),
                                           field.mul(c, v))
                assert all(v == field.zero for v in acc.values()), (field, trial)


def fraction_residue(rows, vec):
    """vec reduced by the reduced echelon form of rows, in Fraction
    arithmetic only: every pivot row, scaled to lead 1, is subtracted in
    ascending pivot order."""
    ref = rref_rational(rows)
    work = {c: Fraction(v) for c, v in vec.items() if v}
    for p in sorted(ref):
        c = work.get(p)
        if not c:
            continue
        row = ref[p]
        for col, v in row.items():
            new = work.get(col, Fraction(0)) - c * Fraction(v, row[p])
            if new:
                work[col] = new
            else:
                work.pop(col, None)
    return work


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_reduce_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    int_residues = fraction_residues = 0
    for trial in range(40):
        ncols = rng.randint(3, 10)
        rows = []
        for _ in range(rng.randint(1, ncols)):
            p = rng.randrange(ncols)
            row = {p: rng.choice([-1, 1, -2, 2, 3])}
            for c in range(p + 1, ncols):
                if rng.random() < 0.4:
                    row[c] = rng.randint(-3, 3)
            rows.append({c: v for c, v in row.items() if v})
        sub = echelonize(QQ, ncols, rows)
        integral = rng.random() < 0.5
        vec = {c: (rng.randint(-3, 3) if integral or rng.random() < 0.5
                   else Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
               for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        got = sub.reduce(vec)
        assert got == fraction_residue(rows, vec), (trial, rows, vec)
        leads = {p: row[p] for p, row in zip(sub.pivots, sub.rows_primitive())}
        if integral and all(leads[p] == 1 for p, v in vec.items() if v and p in leads):
            assert all(type(v) is int for v in got.values()), (trial, rows, vec)
            int_residues += 1
        elif any(isinstance(v, Fraction) for v in got.values()):
            fraction_residues += 1
    assert int_residues and fraction_residues


def sparse_rows(rng, ncols, char):
    """About ncols/2 rows of 3 to 6 nonzeros each, spread over all columns."""
    rows = []
    for _ in range(ncols // 2 + 10):
        cols = rng.sample(range(ncols), rng.randint(3, 6))
        if char == 2:
            rows.append({c: 1 for c in cols})
        else:
            rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                     rng.randint(1, 2)) for c in cols})
    return rows


@pytest.mark.parametrize("field", [QQ, GF2], ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_back_substitution_matches_quadratic_reference(field, seed):
    rng = random.Random(seed)
    ncols = rng.randint(100, 300)
    rows = sparse_rows(rng, ncols, field.char)
    if field.char == 2:
        ref = rref_gf2(rows)
        want = [{c: 1 for c in sorted(ref[p])} for p in sorted(ref)]
    else:
        ref = rref_rational(rows)
        want = [ref[p] for p in sorted(ref)]
    assert len(ref) >= 50
    for _ in range(3):
        rng.shuffle(rows)
        sub = new_subspace(field, ncols)
        for r in rows:
            sub.insert(r)
        assert sub.pivots == sorted(ref)
        if field.char == 2:
            assert sub.rows_rref() == want
        else:
            assert sub.rows_primitive() == want
            assert sub.rows_rref() == [
                {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in zip(sorted(ref), want)]


def test_an_int_vector_is_stored_primitive():
    # an int vector skips the denominator clearing; its zero entries are
    # dropped and its content divided out when it is stored
    sub = new_subspace(QQ, 3)
    assert sub.insert({0: 4, 1: 0, 2: -6})
    assert sub.rows_primitive() == [{0: 2, 2: -3}]
    assert not sub.insert({0: -2, 2: 3})
    assert not sub.insert({0: Fraction(2, 3), 2: -1})
    assert sub.insert({1: 3, 2: Fraction(3, 2)})
    assert sub.rows_primitive() == [{0: 2, 2: -3}, {1: 2, 2: 1}]


@pytest.mark.parametrize("field, values", [
    (QQ, [-3, -2, -1, 1, 2, 3]),
    (QQ, [Fraction(-3, 2), Fraction(-1, 3), -1, 1, Fraction(2, 3), 2]),
    (GF2, [1, 1, 3]),
], ids=["Q-int", "Q-fraction", "GF2"])
def test_insert_leaves_its_argument_alone(field, values):
    # elimination is in place on the subspace's own copy: zcl._GradedSpan
    # rebuilds the kept element from the vector it passed to insert
    rng = random.Random(5)
    sub = new_subspace(field, 12)
    raised = spent = 0
    for _ in range(40):
        vec = {c: rng.choice(values) for c in rng.sample(range(12), rng.randint(1, 6))}
        before = list(vec.items())
        if sub.insert(vec):
            raised += 1
        else:
            spent += 1
        assert list(vec.items()) == before
        if rng.random() < 0.2:
            sub.finalize()
    assert raised and spent


def gf2_residue(ref, vec):
    """vec reduced by rref_gf2's rows, as a set of columns."""
    work = {c for c, v in vec.items() if GF2.coerce(v)}
    for p in sorted(ref):
        if p in work:
            work ^= ref[p]
    return work


def random_vector(rng, field, offset, ncols):
    """A sparse vector over columns offset .. ncols - 1: a third of them
    have one entry, and the entries include leads other than +-1."""
    width = 1 if rng.random() < 0.35 else rng.randint(2, 6)
    cols = rng.sample(range(offset, ncols), width)
    if field.char == 2:
        values = [1, 3, -1, 2, Fraction(3, 5), Fraction(2, 3)]
    else:
        values = [1, -1, 2, -3, 6, Fraction(4, 3), Fraction(-5, 2)]
    return {c: rng.choice(values) for c in cols}


@pytest.mark.parametrize("field", [QQ, GF2], ids=lambda f: f.name)
@pytest.mark.parametrize("seed", range(6))
def test_interleaved_operations_match_the_oracles(field, seed):
    # insert, finalize, reduce and rows_rref in random order, with pivots
    # far from column 0; every answer is checked against a from-scratch
    # reduced echelon form of the vectors inserted so far
    rng = random.Random(seed)
    offset = [0, 3, 61, 200, 1000, 5000][seed]
    ncols = offset + rng.randint(8, 24)
    sub = new_subspace(field, ncols)
    inserted = []
    ref = {}
    checked = {"insert": 0, "reduce": 0, "rows": 0}
    for _ in range(80):
        op = rng.random()
        if op < 0.55:
            vec = random_vector(rng, field, offset, ncols)
            rank = sub.rank
            raised = sub.insert(vec)
            inserted.append(vec)
            if field.char == 2:
                ref = rref_gf2([{c: GF2.coerce(v) for c, v in w.items()}
                                for w in inserted])
            else:
                ref = rref_rational(inserted)
            assert raised == (sub.rank > rank)
            assert sub.rank == len(ref)
            checked["insert"] += 1
        elif op < 0.65:
            sub.finalize()
        elif op < 0.85:
            vec = random_vector(rng, field, offset, ncols)
            got = sub.reduce(vec)
            if field.char == 2:
                assert got == {c: 1 for c in gf2_residue(ref, vec)}
            else:
                assert got == fraction_residue(inserted, vec)
            checked["reduce"] += 1
        else:
            assert sub.pivots == sorted(ref)
            if field.char == 2:
                want = [{c: 1 for c in ref[p]} for p in sorted(ref)]
                assert sub.rows_rref() == want
                assert sub.rows_primitive() == want
            else:
                assert sub.rows_primitive() == [ref[p] for p in sorted(ref)]
                assert sub.rows_rref() == [
                    {c: Fraction(v, ref[p][p]) for c, v in ref[p].items()}
                    for p in sorted(ref)]
            checked["rows"] += 1
    assert all(checked.values()), checked
    assert any(len(row) == 1 for row in ref.values())
    assert min(ref) >= offset


def test_gf2_entries_are_read_as_the_field_reads_them():
    # 3/5 is 1 in GF(2), 1/3 is 1, -1 is 1 and 2 is 0
    assert echelonize(GF2, 2, [{0: Fraction(3, 5), 1: 1}]).rows_rref() == [
        {0: 1, 1: 1}]
    assert kernel_basis(GF2, [{0: Fraction(1, 3)}], 1) == []
    sub = echelonize(GF2, 3, [{0: -1, 1: 2, 2: 3}])
    assert sub.rows_rref() == [{0: 1, 2: 1}]
    assert sub.reduce({0: Fraction(5, 7), 1: 1}) == {1: 1, 2: 1}


@pytest.mark.parametrize("value, error", [
    (Fraction(1, 2), ZeroDivisionError),
    (True, TypeError),
])
def test_gf2_entries_the_field_refuses_are_refused(value, error):
    with pytest.raises(error):
        GF2.coerce(value)
    with pytest.raises(error):
        Gf2Subspace(2).insert({0: 1, 1: value})
    with pytest.raises(error):
        echelonize(GF2, 2, [{0: 1}]).reduce({1: value})


# The memory held after building sphere_mod2_model(7) and
# mod_ideal_quotient(5), imports included, is about 6.1-7.0 MB on CPython
# 3.10-3.13; with dict rows over Q and full-width bitmask rows over GF(2)
# it was 10.3-11.3 MB.
HELD_MB_BOUND = 8.5


def test_built_models_hold_compact_echelon_rows():
    script = textwrap.dedent("""
        import tracemalloc
        tracemalloc.start()
        from tcsurf.models import mod_ideal_quotient, sphere_mod2_model
        held = [sphere_mod2_model(7), mod_ideal_quotient(5)]
        print(tracemalloc.get_traced_memory()[0] / 2**20)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < HELD_MB_BOUND
