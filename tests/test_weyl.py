"""Translations, alcove factorization, and the two inversion-set routes."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loomfold
from loomfold import weyl
from loomfold.cartan import DimensionMismatch, all_affine_types, build, build_affine
from loomfold.folding import sigma_for, verify_fold_identity
from loomfold.weyl import (
    ExtWeylElt,
    NotLengthZeroResidue,
    NotReduced,
    PackedOverflow,
    alcove_factorize,
    braid2_canonical,
    inversion_set_closed_form,
    inversion_set_detailed,
    inversion_set_from_word,
    lambda_pairing,
    length_delta,
    translation_minus_lambda,
)

from _oracles import compose, finite_positive_roots, root_norm, simple_reflection


def test_simple_reflection_basics():
    d = build("D", 3, 2)
    s2 = simple_reflection(d, 2)
    a1 = (0, 1, 0)
    assert s2.apply(a1) == (0, 1, 2)           # s_2(a1) = a1 + 2 a2
    a2 = (0, 0, 1)
    assert s2.apply(a2) == (0, 0, -1)
    assert s2.apply(d.delta) == d.delta
    assert compose(s2, s2).matrix == tuple(
        tuple(int(i == j) for j in range(3)) for i in range(3))
    from loomfold.cartan import IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        simple_reflection(d, 3)


def test_pairing_rule():
    # each rule pinned at a node with d_s != 1: coefficient only for untwisted
    # and A_{2n}^(2), d_s times the coefficient for the other twisted types
    for key, s, expect in ((("A", 4, 2), 1, 1), (("B", 3, 1), 1, 1),
                           (("D", 4, 3), 2, 3), (("A", 5, 2), 3, 2)):
        d = build(*key)
        assert d.sym[s] != 1
        e_s = tuple(int(j == s) for j in range(d.rank))
        assert lambda_pairing(d, s, e_s) == expect, key
    d = build("A", 5, 2)
    assert lambda_pairing(d, 1, (0, 1, 0, 0)) == 1
    assert lambda_pairing(d, 1, d.delta) == 0


def test_translation_action():
    # A2~2: (lambda_1, a1) = 1, so a1 -> a1 + delta; the coefficient is pinned
    # by the requirement that the inversion set is {a1, 2a1 + delta}
    d = build("A", 2, 2)
    t = translation_minus_lambda(d, 1)
    assert t.apply((0, 1)) == tuple(x + y for x, y in zip((0, 1), d.delta))
    assert t.apply(d.delta) == d.delta
    assert inversion_set_closed_form(d, 1) == [(0, 1), (1, 4)]  # {a1, 2a1+delta}
    # D3~2: a2 -> a2 + d_2 delta with d_2 = 1
    d = build("D", 3, 2)
    t = translation_minus_lambda(d, 2)
    assert t.apply((0, 0, 1)) == tuple(x + y for x, y in zip((0, 0, 1), d.delta))
    assert t.apply(d.delta) == d.delta


def test_translation_additivity():
    for key in (("A", 4, 1), ("D", 3, 2), ("A", 6, 2), ("E", 6, 2), ("D", 4, 3)):
        d = build(*key)
        for s in range(1, d.n + 1):
            t = translation_minus_lambda(d, s)
            tt = compose(t, t)
            for i in range(d.rank):
                e = tuple(int(j == i) for j in range(d.rank))
                once = t.apply(e)
                shift = tuple(o - x for o, x in zip(once, e))
                assert tt.apply(e) == tuple(x + 2 * y for x, y in zip(e, shift))


WORD_FIXTURES = {
    ("A", 5, 2, 1): (1, 2, 3, 2, 1),
    ("D", 3, 2, 2): (2, 1, 2),
    ("D", 4, 2, 3): (3, 2, 1, 3, 2, 3),
}

BETA_FIXTURES = {
    # beta_k sequences in word order
    ("D", 3, 2, 2): [(0, 0, 1), (0, 1, 2), (0, 1, 1)],
    ("A", 5, 2, 1): [(0, 1, 0, 0), (0, 1, 1, 0), (0, 2, 2, 1), (0, 1, 1, 1), (0, 1, 2, 1)],
}


@pytest.mark.parametrize("key", sorted(WORD_FIXTURES))
def test_word_fixtures(key):
    fam, N, r, s = key
    d = build(fam, N, r)
    word, tau = alcove_factorize(d, translation_minus_lambda(d, s))
    assert braid2_canonical(d, word) == braid2_canonical(d, WORD_FIXTURES[key])
    assert word[0] == s
    assert word[-1] == tau[0]


def test_beta_fixtures():
    for (fam, N, r, s), expect in BETA_FIXTURES.items():
        d = build(fam, N, r)
        word, _ = alcove_factorize(d, translation_minus_lambda(d, s))
        assert inversion_set_from_word(d, word) == expect


def test_minuscule_word_patterns():
    # A_{2n-1}^(2) node 1: (1, 2, ..., n-1, n, n-1, ..., 2, 1)
    for n in range(3, 7):
        d = build("A", 2 * n - 1, 2)
        word, _ = alcove_factorize(d, translation_minus_lambda(d, 1))
        expect = tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))
        assert braid2_canonical(d, word) == braid2_canonical(d, expect)
    # D_{n+1}^(2) node n: (n, ..., 1) (n, ..., 2) ... (n)
    for n in range(2, 7):
        d = build("D", n + 1, 2)
        word, _ = alcove_factorize(d, translation_minus_lambda(d, n))
        expect = tuple(x for k in range(1, n + 1) for x in range(n, k - 1, -1))
        assert braid2_canonical(d, word) == braid2_canonical(d, expect)


def test_tau_is_diagram_automorphism():
    d = build("D", 3, 2)
    word, tau = alcove_factorize(d, translation_minus_lambda(d, 2))
    assert tau == (2, 1, 0)
    for i in range(3):
        for j in range(3):
            assert d.gcm[tau[i]][tau[j]] == d.gcm[i][j]


def test_closed_form_fixtures():
    d = build("A", 5, 2)
    assert inversion_set_closed_form(d, 1) == [
        (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 2, 1)]
    d = build("D", 4, 2)
    assert inversion_set_closed_form(d, 3) == [
        (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2),
        (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 2)]


def _real_roots_window(d, max_delta):
    """All real roots with |delta-coefficient| <= max_delta, by Weyl-orbit BFS.

    Independent of both inversion-set routes: walks the reflection orbit of
    the simple roots inside a padded window (real roots = W-orbit of simples).
    """
    pad = max_delta + 4
    m = d.rank
    simples = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        b = queue.pop()
        for i in range(m):
            pairing = sum(d.gcm[i][j] * b[j] for j in range(m) if b[j])
            if pairing == 0:
                continue
            nb = list(b)
            nb[i] -= pairing
            t = tuple(nb)
            # a_0 = 1, so slot 0 is the delta multiple; pad the BFS window
            if t in seen or abs(t[0]) > pad:
                continue
            seen.add(t)
            queue.append(t)
    return {b for b in seen if abs(b[0]) <= max_delta}


def test_inversion_set_against_definition():
    # third route: positive real roots beta with t^{-1}(beta) negative,
    # enumerated inside a delta-window that contains every closed-form root
    for key in (("A", 2, 2), ("A", 4, 2), ("A", 5, 2), ("D", 3, 2), ("D", 4, 2),
                ("E", 6, 2), ("D", 4, 3), ("A", 3, 1), ("B", 3, 1), ("C", 3, 1),
                ("G", 2, 1), ("F", 4, 1)):
        d = build(*key)
        for s in range(1, d.n + 1):
            closed = set(inversion_set_closed_form(d, s))
            window = max(b[0] for b in closed) + 2  # a_0 = 1: slot 0 tracks delta
            reals = _real_roots_window(d, window)
            by_definition = set()
            for b in reals:
                if not all(x >= 0 for x in b):
                    continue
                shift = lambda_pairing(d, s, b)
                image = tuple(x - shift * y for x, y in zip(b, d.delta))  # t^{-1}(b)
                if any(x != 0 for x in image) and all(x <= 0 for x in image):
                    by_definition.add(b)
            assert by_definition == closed, (key, s)


def test_factorize_round_trip():
    # random extended-Weyl elements: factorization reconstructs the matrix
    # and the word is no longer than the generating expression
    import random
    rng = random.Random(11)
    for key in (("A", 3, 1), ("D", 4, 2), ("E", 6, 2), ("A", 4, 2), ("D", 4, 3)):
        d = build(*key)
        for trial in range(8):
            elt = translation_minus_lambda(d, rng.randrange(1, d.n + 1))
            letters = [rng.randrange(0, d.rank) for _ in range(rng.randrange(0, 9))]
            for i in letters:
                elt = compose(simple_reflection(d, i), elt)
            word, tau = alcove_factorize(d, elt)
            rebuilt = None
            for i in word:
                m = simple_reflection(d, i)
                rebuilt = m if rebuilt is None else compose(rebuilt, m)
            rows = tuple(tuple(int(r == tau[c]) for c in range(d.rank)) for r in range(d.rank))
            perm = ExtWeylElt(rows, tuple(zip(*rows)))  # a permutation's inverse is its transpose
            rebuilt = perm if rebuilt is None else compose(rebuilt, perm)
            assert rebuilt.matrix == elt.matrix
            # factorization is stable: re-factorizing returns the same word
            word2, tau2 = alcove_factorize(d, rebuilt)
            assert (word2, tau2) == (word, tau)


def _identity(d):
    eye = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    return ExtWeylElt(eye, eye)


def _naive_betas(d, word):
    """s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) for each k, by matrix products."""
    prefix = _identity(d)
    betas = []
    for i in word:
        betas.append(prefix.apply(tuple(int(j == i) for j in range(d.rank))))
        prefix = compose(prefix, simple_reflection(d, i))
    return betas


@st.composite
def weyl_elements(draw):
    """(data, word, s): the element s_{i_1} ... s_{i_k}, times t_{-lambda_s} when s > 0."""
    d = build_affine(draw(st.sampled_from(all_affine_types(6))))
    word = tuple(draw(st.lists(st.integers(0, d.n), max_size=12)))
    return d, word, draw(st.integers(0, d.n))


@settings(derandomize=True, database=None, deadline=None)
@given(weyl_elements())
def test_kernel_matches_matrix_products(case):
    d, word, s = case
    elt = _identity(d)
    for i in word:
        elt = compose(elt, simple_reflection(d, i))
    if s:
        elt = compose(elt, translation_minus_lambda(d, s))
    reduced, tau = alcove_factorize(d, elt)
    rebuilt = _identity(d)
    for i in reduced:
        rebuilt = compose(rebuilt, simple_reflection(d, i))
    rows = tuple(tuple(int(r == tau[c]) for c in range(d.rank)) for r in range(d.rank))
    assert compose(rebuilt, ExtWeylElt(rows, tuple(zip(*rows)))).matrix == elt.matrix
    assert inversion_set_from_word(d, reduced) == _naive_betas(d, reduced)
    betas = _naive_betas(d, word)
    if all(min(b) >= 0 for b in betas) and len(set(betas)) == len(betas):
        assert inversion_set_from_word(d, word) == betas
    else:
        with pytest.raises(NotReduced):
            inversion_set_from_word(d, word)


def test_betas_are_positive_real_roots():
    for key in (("A", 5, 2), ("A", 2, 2), ("A", 4, 2), ("D", 5, 2), ("E", 6, 2),
                ("D", 4, 3), ("B", 4, 1), ("C", 4, 1), ("E", 6, 1)):
        d = build(*key)
        pos = set(finite_positive_roots(d))
        doubled_short = {tuple(2 * x for x in b) for b in pos if root_norm(d, b) == 2}
        for s in range(1, d.n + 1):
            word, _ = alcove_factorize(d, translation_minus_lambda(d, s))
            for b in inversion_set_from_word(d, word):
                assert all(x >= 0 for x in b) and any(x > 0 for x in b)
                k = b[0]  # delta multiple, since a_0 = 1
                bar = tuple(x - k * y if i else 0 for i, (x, y) in enumerate(zip(b, d.delta)))
                if d.type.is_a2n2:
                    assert bar in pos or bar in doubled_short
                else:
                    assert bar in pos


def test_length_delta_signs():
    # Prop-style sign table: left descent only at k = s, right only at k = 0
    for key in (("D", 3, 2), ("A", 5, 2), ("A", 4, 2), ("E", 6, 2), ("A", 3, 1), ("B", 3, 1)):
        d = build(*key)
        for s in range(1, d.n + 1):
            for k in range(d.rank):
                assert length_delta(d, s, k, "left") == (-1 if k == s else 1)
                assert length_delta(d, s, k, "right") == (-1 if k == 0 else 1)


def test_length_delta_examples():
    d = build("D", 3, 2)
    assert length_delta(d, 2, 2, "left") == -1
    assert length_delta(d, 2, 0, "right") == -1
    assert length_delta(d, 2, 1, "left") == 1


def test_not_reduced():
    d = build("A", 2, 1)
    with pytest.raises(NotReduced):
        inversion_set_from_word(d, (1, 1))
    with pytest.raises(NotReduced):
        inversion_set_from_word(d, (1, 2, 1, 2))  # braid-long word; beta repeats
    assert inversion_set_from_word(d, ()) == []


def test_not_length_zero_residue():
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    # doubling the lattice is not an extended-Weyl action: no integer inverse
    double = tuple(tuple(2 * x for x in row) for row in eye)
    with pytest.raises(NotLengthZeroResidue, match="not the integer inverse"):
        ExtWeylElt(double, eye)
    singular = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    with pytest.raises(NotLengthZeroResidue, match="not the integer inverse"):
        ExtWeylElt(singular, eye)
    # a unit diagonal in the product is not enough: (0, 1, 1) off it
    shear = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    with pytest.raises(NotLengthZeroResidue, match="not the integer inverse"):
        ExtWeylElt(shear, eye)
    # -I is invertible but moves delta; the descent on it never ended, hence
    # the subprocess and its timeout
    script = (
        "from loomfold.cartan import build\n"
        "from loomfold.weyl import ExtWeylElt, NotLengthZeroResidue, alcove_factorize\n"
        "neg = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))\n"
        "try:\n"
        "    alcove_factorize(build('A', 2, 1), ExtWeylElt(neg, neg))\n"
        "except NotLengthZeroResidue as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "does not fix delta" in proc.stdout


@pytest.mark.parametrize("matrix, inverse, shapes", [
    (((1,),), ((1, 0), (0, 5)), "1x1 .* 2x2"),
    (((1, 0),), ((1,),), "1x2 .* 1x1"),
    (((1, 0), (0, 1)), ((1,),), "2x2 .* 1x1"),  # used to raise a bare IndexError
    (((1, 0), (0,)), ((1, 0), (0, 1)), r"2x1\|2 .* 2x2"),
])
def test_element_rejects_mismatched_shapes(matrix, inverse, shapes):
    with pytest.raises(DimensionMismatch, match=shapes):
        ExtWeylElt(matrix, inverse)


def test_element_check_runs_on_every_constructor():
    # a record copy (_replace, _make) is checked as a fresh element is, and no
    # field of a made element can be set
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    double = tuple(tuple(2 * x for x in row) for row in eye)
    elt = ExtWeylElt(eye, eye)
    assert elt._replace() == elt and ExtWeylElt._make([eye, eye]) == elt
    for make in (lambda: ExtWeylElt(matrix=double, inverse=eye),
                 lambda: elt._replace(matrix=double),
                 lambda: ExtWeylElt._make((eye, double))):
        with pytest.raises(NotLengthZeroResidue, match="not the integer inverse"):
            make()
    for make in (lambda: ExtWeylElt(matrix=eye, inverse=((1,),)),
                 lambda: elt._replace(inverse=((1, 0), (0, 1))),
                 lambda: ExtWeylElt._make((((1,),), eye))):
        with pytest.raises(DimensionMismatch, match="both must be square of one size"):
            make()
    with pytest.raises(AttributeError):
        elt.matrix = double
    with pytest.raises(AttributeError):
        elt.scale = 2


@pytest.mark.parametrize("length", [2, 4])
def test_apply_rejects_wrong_length(length):
    # map(mul, row, v) stops at the shorter side, so a wrong length would pass silently
    with pytest.raises(DimensionMismatch, match=f"length 3, got {length}"):
        simple_reflection(build("A", 2, 1), 1).apply((1,) * length)


@pytest.mark.parametrize("length", [2, 6])
def test_lambda_pairing_rejects_wrong_length(length):
    # A3~1 has rank 4; a shorter or longer vector used to be paired anyway
    v = (0, 1) + (0,) * (length - 2)
    with pytest.raises(DimensionMismatch, match=f"length 4, got {length}"):
        lambda_pairing(build("A", 3, 1), 1, v)


def test_finite_root_norms_match_root_norm():
    # the root lengths that the step table reads off the closure's origins,
    # against the bilinear form: gamma = r exactly for the roots of norm 2r,
    # and on A_{2n}^(2) a family-2 row exactly for the roots of norm 2
    for at in all_affine_types(12):
        d = build_affine(at)
        r = d.type.r
        rows = weyl._root_steps(d)
        family1 = [al for al, _, _, fam, _, _ in rows if fam != 2]
        assert family1 == list(finite_positive_roots(d)), at
        if d.type.is_a2n2:
            assert all(gam == 1 for _, gam, *_ in rows), at
            assert ({al for al, _, _, fam, _, _ in rows if fam == 2}
                    == {al for al in family1 if root_norm(d, al) == 2}), at
        else:
            assert all(gam == (r if root_norm(d, al) == 2 * r else 1)
                       for al, gam, *_ in rows), at


def test_translation_matches_dense_construction():
    # the definition: I +- delta c^T with every c_j = (lambda_s, bar alpha_j)
    for at in all_affine_types(12):
        d = build_affine(at)
        m = d.rank
        units = [tuple(int(t == j) for t in range(m)) for j in range(m)]
        for s in range(1, d.n + 1):
            c = [lambda_pairing(d, s, e) for e in units]
            t = translation_minus_lambda(d, s)
            for sign, mat in ((1, t.matrix), (-1, t.inverse)):
                assert mat == tuple(tuple(int(k == j) + sign * d.delta[k] * c[j] for j in range(m))
                                    for k in range(m)), (at, s, sign)


@pytest.mark.parametrize("data_key, elt_key", [(("A", 3, 1), ("A", 2, 1)),
                                                (("A", 2, 1), ("A", 3, 1))])
def test_factorize_rejects_element_of_another_rank(data_key, elt_key):
    # a smaller element used to raise a bare IndexError, a larger one a
    # misleading "residue is not a simple-root permutation"
    d, other = build(*data_key), build(*elt_key)
    with pytest.raises(DimensionMismatch, match=rf"size {other.rank} .* rank {d.rank}"):
        alcove_factorize(d, translation_minus_lambda(other, 1))


def test_packed_width_overflow_raises(monkeypatch):
    # E8~1 s=5 has roots of height up to 181; at 8 bits per coordinate a
    # packed column certifies heights below 128 only
    d = build("E", 8, 1)
    t = translation_minus_lambda(d, 5)
    word, _ = alcove_factorize(d, t)
    small = build("A", 2, 1)
    small_word, small_tau = alcove_factorize(small, translation_minus_lambda(small, 1))
    small_betas = inversion_set_from_word(small, small_word)
    monkeypatch.setattr(weyl, "_WIDTH", 8)
    with pytest.raises(PackedOverflow):
        alcove_factorize(d, t)
    with pytest.raises(PackedOverflow):
        inversion_set_from_word(d, word)
    # a word that stops being reduced at a root too large to decode raises
    # the overflow too: NotReduced names that root
    with pytest.raises(PackedOverflow):
        inversion_set_from_word(d, word + word)
    # the width bounds decoding only: small roots come back unchanged
    assert alcove_factorize(small, translation_minus_lambda(small, 1)) == (small_word, small_tau)
    assert inversion_set_from_word(small, small_word) == small_betas


def test_packed_codec_round_trip():
    for at in all_affine_types(12):
        d = build_affine(at)
        for al in finite_positive_roots(d):
            packed = weyl._pack(al)
            assert weyl._unpack_positive([packed], d.rank) == [al], (at, al)
            assert weyl._pack(tuple(-x for x in al)) == -packed < 0, (at, al)


def test_packed_codec_width_bound(monkeypatch):
    # on A2~1, alpha_1 + 42 delta has height 127 and alpha_1 + alpha_2 + 42 delta 128;
    # 8 bits per slot certify heights below 2^7 only
    monkeypatch.setattr(weyl, "_WIDTH", 8)
    below, at_bound = (42, 43, 42), (42, 43, 43)
    assert weyl._unpack_positive([weyl._pack(below)], 3) == [below]
    for v in (at_bound, tuple(-x for x in at_bound)):
        with pytest.raises(PackedOverflow, match="height -?128"):
            weyl._pack(v)
    with pytest.raises(PackedOverflow):  # the least column the decode bound refuses
        weyl._unpack_positive([1 << (8 * 4 - 1)], 3)


def test_affine_data_hashes_by_type():
    for at in all_affine_types(12):
        d = build_affine(at)
        copy = d._replace()
        assert hash(d) == hash(at) == hash(copy)
        assert copy == d and copy is not d
        assert weyl._root_steps(copy) is weyl._root_steps(d), at
    d = build("A", 5, 2)
    assert d._replace(theta=d.delta) != d  # equality stays field by field


NODE_CALLS = {
    "translation s=0": lambda d: translation_minus_lambda(d, 0),
    "translation s=n+1": lambda d: translation_minus_lambda(d, 4),
    "closed form s=-1": lambda d: inversion_set_detailed(d, -1),
    "pairing s=-1": lambda d: lambda_pairing(d, -1, d.delta),
    "length_delta k=-1": lambda d: length_delta(d, 1, -1, "left"),
    "length_delta k=n+1": lambda d: length_delta(d, 1, 4, "right"),
    "word letter -1": lambda d: inversion_set_from_word(d, (1, -1)),
    "rep_of s=0": lambda d: sigma_for(d).rep_of(0),
    "fold identity s=-1": lambda d: verify_fold_identity(d, -1),
}


@pytest.mark.parametrize("call", sorted(NODE_CALLS))
def test_library_rejects_out_of_range_node(call):
    # A5~2 has nodes 0..3; a negative node used to alias a real one as a Python index
    with pytest.raises(ValueError, match=r"node -?\d+ is not in [01]\.\.3 for A5~2"):
        NODE_CALLS[call](build("A", 5, 2))


def test_elements_map_real_roots_to_real_roots():
    # spot check on all simple roots and theta: images reduce mod delta to
    # finite roots (doubled short roots are the extra class for A_2n~2)
    for key in (("A", 5, 2), ("A", 4, 2), ("E", 6, 2), ("D", 4, 3), ("B", 3, 1)):
        d = build(*key)
        pos = set(finite_positive_roots(d))
        doubled = {tuple(2 * x for x in b) for b in pos if root_norm(d, b) == 2}
        real_classes = pos | {tuple(-x for x in b) for b in pos}
        real_classes |= doubled | {tuple(-x for x in b) for b in doubled}
        elements = [simple_reflection(d, i) for i in range(d.rank)]
        elements += [translation_minus_lambda(d, s) for s in range(1, d.n + 1)]
        probes = [tuple(int(j == i) for j in range(d.rank)) for i in range(d.rank)]
        probes.append(d.theta)
        for elt in elements:
            for v in probes:
                w = elt.apply(v)
                k = w[0]  # delta multiple
                bar = tuple(x - k * y if i else 0
                            for i, (x, y) in enumerate(zip(w, d.delta)))
                assert bar in real_classes, (key, v, w)


def test_braid2_canonical():
    d = build("D", 4, 2)
    # letters 1 and 3 commute; canonical form sorts them
    assert braid2_canonical(d, (3, 1)) == (1, 3)
    assert braid2_canonical(d, (3, 2, 3, 1)) == (3, 2, 1, 3)
    assert braid2_canonical(d, (3, 2, 1, 3, 2, 3)) == braid2_canonical(d, (3, 2, 3, 1, 2, 3))
    # non-commuting letters never reorder
    assert braid2_canonical(d, (2, 1)) == (2, 1)
