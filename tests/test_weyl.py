"""Translations, alcove factorization, and the two inversion-set routes."""

import pytest

from loomfold.cartan import build
from loomfold.lattice import finite_positive_roots, root_norm
from loomfold.weyl import (
    ExtWeylElt,
    NotLengthZeroResidue,
    NotReduced,
    alcove_factorize,
    braid2_canonical,
    inversion_set_closed_form,
    inversion_set_from_word,
    length_delta,
    simple_reflection,
    translation_minus_lambda,
)


def test_simple_reflection_basics():
    d = build("D", 3, 2)
    s2 = simple_reflection(d, 2)
    a1 = (0, 1, 0)
    assert s2.apply(a1) == (0, 1, 2)           # s_2(a1) = a1 + 2 a2
    a2 = (0, 0, 1)
    assert s2.apply(a2) == (0, 0, -1)
    assert s2.apply(d.delta) == d.delta
    assert s2.compose(s2).matrix == tuple(
        tuple(int(i == j) for j in range(3)) for i in range(3))
    from loomfold.lattice import IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        simple_reflection(d, 3)


def test_pairing_rule():
    from loomfold.weyl import lambda_pairing, pairing_rule
    assert pairing_rule(build("A", 3, 1)) == "coeff"
    assert pairing_rule(build("A", 4, 2)) == "coeff"
    assert pairing_rule(build("A", 5, 2)) == "d_s_times_coeff"
    assert pairing_rule(build("D", 4, 3)) == "d_s_times_coeff"
    d = build("A", 5, 2)  # d_3 = 2 at the long node
    assert lambda_pairing(d, 3, (0, 0, 0, 1)) == 2
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
            tt = t.compose(t)
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
    from loomfold.weyl import lambda_pairing
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
                elt = simple_reflection(d, i).compose(elt)
            word, tau = alcove_factorize(d, elt)
            rebuilt = None
            for i in word:
                m = simple_reflection(d, i)
                rebuilt = m if rebuilt is None else rebuilt.compose(m)
            perm = ExtWeylElt(tuple(
                tuple(int(r == tau[c]) for c in range(d.rank)) for r in range(d.rank)))
            rebuilt = perm if rebuilt is None else rebuilt.compose(perm)
            assert rebuilt.matrix == elt.matrix
            # factorization is stable: re-factorizing returns the same word
            word2, tau2 = alcove_factorize(d, rebuilt)
            assert (word2, tau2) == (word, tau)


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
    d = build("A", 2, 1)
    # doubling the lattice is not an extended-Weyl action
    bad = ExtWeylElt(tuple(tuple(2 * int(i == j) for j in range(3)) for i in range(3)))
    with pytest.raises(NotLengthZeroResidue, match="not a root-lattice automorphism"):
        alcove_factorize(d, bad)
    singular = ExtWeylElt(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(NotLengthZeroResidue, match="matrix is singular"):
        alcove_factorize(d, singular)


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
