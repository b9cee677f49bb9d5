"""Regular subgroups, induced permutations, their text formats."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect import affine, codes
from qperfect.affine import (
    CheckResult,
    PermTable,
    RegularSubgroup,
    Series,
    _generators,
    identity_perm,
    iterate_perms,
    linear_perm,
    perm_inverse,
    read_perm,
    series_group,
    series_perm,
    shear_group,
    shear_swap_perm,
    verify_automorphism,
    verify_regular_subgroup,
)
from qperfect.cli import main
from qperfect.codes import distension
from qperfect.hamming import build_hamming_pair, field_powers, span_table
from qperfect.linalg import FieldContext, ParseError, is_invertible, is_prime
from qperfect.verify import VERIFY_GUARD, PropelinearCertificate

from hamming_oracles import (
    all_vectors,
    block_product_cols,
    direct_product,
    exhaustive_automorphism,
    exhaustive_regular_subgroup,
    searched_generators,
    series_fold,
    subgroup_matrices,
    translation_group,
    vec_to_index,
    write_perm,
)


def test_perm_table_validation():
    ctx = FieldContext(3)
    with pytest.raises(ValueError):
        PermTable(ctx, 1, np.array([0, 1, 1]))  # not a bijection
    with pytest.raises(ValueError):
        PermTable(ctx, 1, np.array([1, 0, 2]))  # moves 0
    with pytest.raises(ValueError):
        PermTable(ctx, 1, np.array([0, 1]))  # wrong size


def test_perm_table_refuses_images_out_of_range():
    # a scatter alone would wrap -1 to the last point, and [0, -1, 1] would
    # then mark every point
    ctx = FieldContext(3)
    for images in ([0, -1, 1], [0, 3, 1], [0, 2, 2**40]):
        with pytest.raises(ValueError, match="not a bijection"):
            PermTable(ctx, 1, np.array(images))


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(9)), st.integers(0, 8), st.integers(-2, 10))
def test_perm_table_accepts_exactly_the_zero_fixing_bijections(perm, at, value):
    # a permutation with one entry overwritten, against the sorted-table
    # definition
    ctx = FieldContext(3)
    images = list(perm)
    images[at] = value
    table = np.array(images)
    if np.array_equal(np.sort(table), np.arange(9)) and images[0] == 0:
        assert PermTable(ctx, 2, table).images.tolist() == images
    else:
        with pytest.raises(ValueError):
            PermTable(ctx, 2, table)


def test_perm_table_takes_its_own_copy():
    # a write to the caller's array after validation would leave the table
    # [0, 0, 2, .., 8], no bijection, whose distension reads 1
    ctx = FieldContext(3)
    hp = build_hamming_pair(ctx, 2)
    images = np.arange(9)
    tau = PermTable(ctx, 2, images)
    images[1] = 0
    assert tau.images.tolist() == list(range(9))
    assert distension(hp, tau) == 0
    assert tau.images.flags.owndata and not tau.images.flags.writeable
    with pytest.raises(ValueError):
        tau.images[1] = 0


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_index_tables_refuse_non_integer_entries(as_array):
    # a cast to int64 would truncate these to the valid tables [0, 1, 2]
    # and [[1], [1], [2]]; integer-valued floats are the same indices
    ctx = FieldContext(3)
    table = np.array if as_array else list
    with pytest.raises(ValueError, match="integers"):
        PermTable(ctx, 1, table([0, 1.7, 2.2]))
    with pytest.raises(ValueError, match="integers"):
        RegularSubgroup(ctx, 1, table([[1], [1.5], [2]]))
    assert PermTable(ctx, 1, table([0.0, 2.0, 1.0])).images.tolist() == [0, 2, 1]
    assert RegularSubgroup(ctx, 1, table([[1.0], [1.0], [2.0]])).cols.tolist() == [[1], [1], [2]]
    # the certificate takes its tables the same way: one word of length 2
    # over GF(2), its coordinates fixed and its symbols swapped
    with pytest.raises(ValueError, match="integers"):
        PropelinearCertificate(table([[1, 1]]), table([[0, 1]]), table([[[1, 0], [1, 0.5]]]))
    cert = PropelinearCertificate(table([[1.0, 1.0]]), table([[0.0, 1.0]]), table([[[1.0, 0.0], [1.0, 0.0]]]))
    assert cert.pis.tolist() == [[[1, 0], [1, 0]]] and cert.words.tolist() == [[1, 1]]


def test_preimages_invert_a_permutation_that_is_not_an_involution():
    # the shear swap and every series permutation are involutions, whose
    # images and preimages agree; a 3-cycle and a seeded random table do not
    tau = PermTable(FieldContext(2), 2, np.array([0, 2, 3, 1]))
    assert tau.preimages.tolist() == [0, 3, 1, 2]
    assert perm_inverse(tau).images.tolist() == [0, 3, 1, 2]
    images = np.concatenate([[0], 1 + np.random.default_rng(7).permutation(80)])
    tau = PermTable(FieldContext(3), 4, images)
    assert np.array_equal(tau.preimages, np.argsort(images))
    assert np.array_equal(tau.preimages[tau.images], np.arange(81))
    assert tau.preimages is not tau.preimages  # a fresh table on every read


def test_perm_inverse_round_trip():
    ctx = FieldContext(3)
    tau = shear_swap_perm(ctx)
    inv = perm_inverse(tau)
    assert np.array_equal(tau.images[inv.images], np.arange(9))
    assert np.array_equal(inv.images, tau.images)  # this permutation is an involution


def test_shear_group_frozen_values():
    # each row holds the column indices of one matrix: at q = 3 the column
    # (x, y) has index x + 3y
    ctx = FieldContext(3)
    G = shear_group(ctx)
    assert G.size == 9
    assert G.cols[0].tolist() == [1, 3]  # I = [[1,0],[0,1]]
    # (i,j) = (0,2): translation (0 + 2*1, 2) = (2,2) at index 8, shear [[1,4]] = [[1,1],[0,1]]
    assert G.cols[vec_to_index(3, [2, 2])].tolist() == [1, 4]
    # (i,j) = (0,1): translation (0,1) at index 3, shear [[1,2],[0,1]]
    assert G.cols[vec_to_index(3, [0, 1])].tolist() == [1, 5]


def test_shear_group_translation_parts_distinct_q5():
    # group order 25: the translation-part indexing covers every point
    G = shear_group(FieldContext(5))
    assert G.size == 25
    assert verify_regular_subgroup(G).ok


def test_shear_group_needs_q_at_least_3():
    with pytest.raises(ValueError):
        shear_group(FieldContext(2))
    with pytest.raises(ValueError):
        shear_swap_perm(FieldContext(2))


def brute_shear_images(q):
    """Oracle: evaluate the exponent-swap on translation parts directly."""
    images = [0] * (q * q)
    for i in range(q):
        for j in range(q):
            src = ((i + j * (j - 1)) % q) + q * j
            dst = ((j + i * (i - 1)) % q) + q * i
            images[src] = dst
    return images


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shear_swap_matches_formula_oracle(q):
    tau = shear_swap_perm(FieldContext(q))
    assert tau.images.tolist() == brute_shear_images(q)
    # involution fixing 0
    assert tau.images[0] == 0
    assert np.array_equal(tau.images[tau.images], np.arange(q * q))


def test_shear_swap_frozen_table_q3():
    tau = shear_swap_perm(FieldContext(3))
    assert tau.images.tolist() == [0, 3, 8, 1, 4, 6, 5, 7, 2]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shear_swap_published_values(q):
    # (1,0) <-> (0,1), (5,-2) -> (0,-1), (2,2) -> (2,0), reduced mod q
    tau = shear_swap_perm(FieldContext(q))

    def image(vec):
        return tau.images[vec_to_index(q, np.array(vec) % q)]

    assert image([1, 0]) == vec_to_index(q, np.array([0, 1]) % q)
    assert image([0, 1]) == vec_to_index(q, np.array([1, 0]) % q)
    assert image([5, -2]) == vec_to_index(q, np.array([0, -1]) % q)
    assert image([2, 2]) == vec_to_index(q, np.array([2, 0]) % q)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shear_premises(q):
    ctx = FieldContext(q)
    G = shear_group(ctx)
    assert verify_regular_subgroup(G).ok
    assert verify_automorphism(G, shear_swap_perm(ctx)).ok


def test_verify_rejects_corrupted_subgroup():
    ctx = FieldContext(3)
    G = shear_group(ctx)
    cols = G.cols.copy()
    cols[vec_to_index(3, [1, 0])] = [1, 4]  # [[1,1],[0,1]]
    bad = RegularSubgroup(ctx, 2, cols)
    res = verify_regular_subgroup(bad)
    assert not res.ok
    assert "closure" in res.detail or "identity" in res.detail


def test_translation_group_owns_one_read_only_table():
    G = translation_group(FieldContext(3), 2)
    assert G.cols.flags.owndata
    assert not G.cols.flags.writeable
    assert G.cols.shape == (9, 2)
    assert (G.cols == [1, 3]).all()  # every matrix is I


def test_subgroup_takes_its_own_copy():
    ctx = FieldContext(3)
    cols = translation_group(ctx, 2).cols.copy()
    G = RegularSubgroup(ctx, 2, cols)
    cols[0] = 0
    assert G.cols[0].tolist() == [1, 3]


@pytest.mark.parametrize("entry", [9, 10, -1, -9])
def test_subgroup_rejects_out_of_range_columns(entry):
    # indices lie in [0, q**r); a negative one would wrap in numpy indexing
    ctx = FieldContext(3)
    cols = translation_group(ctx, 2).cols.copy()
    cols[4, 1] = entry
    with pytest.raises(ValueError, match="column indices"):
        RegularSubgroup(ctx, 2, cols)


@pytest.mark.parametrize("shape", [(9, 3), (8, 2), (9, 2, 2), (18,)])
def test_subgroup_rejects_wrong_shapes(shape):
    with pytest.raises(ValueError, match="shape"):
        RegularSubgroup(FieldContext(3), 2, np.ones(shape, dtype=np.int64))


def test_verify_rejects_singular_entry():
    ctx = FieldContext(3)
    G = translation_group(ctx, 1)
    cols = G.cols.copy()
    cols[1] = 0  # M_1 = [[0]]
    res = verify_regular_subgroup(RegularSubgroup(ctx, 1, cols))
    assert not res.ok and "singular" in res.detail


def test_shear_swap_is_not_translation_automorphism():
    # nonlinear permutation: fails the automorphism law over pure translations
    ctx = FieldContext(3)
    res = verify_automorphism(translation_group(ctx, 2), shear_swap_perm(ctx))
    assert not res.ok


def test_linear_perms_are_translation_automorphisms():
    ctx = FieldContext(3)
    G = translation_group(ctx, 2)
    assert verify_automorphism(G, identity_perm(ctx, 2)).ok
    assert verify_automorphism(G, linear_perm(ctx, [[0, 1], [1, 0]])).ok
    assert verify_automorphism(G, linear_perm(ctx, [[1, 1], [0, 1]])).ok


def test_linear_perm_frozen_swap():
    tau = linear_perm(FieldContext(2), [[0, 1], [1, 0]])
    assert tau.images.tolist() == [0, 2, 1, 3]
    with pytest.raises(ValueError):
        linear_perm(FieldContext(3), [[1, 2], [2, 1]])  # singular
    with pytest.raises(ValueError, match="materialization guard"):
        linear_perm(FieldContext(2), np.eye(21, dtype=np.int64))


def test_direct_product_blocks():
    ctx = FieldContext(3)
    G = direct_product(shear_group(ctx), translation_group(ctx, 1))
    assert G.size == 27
    mats, shear = subgroup_matrices(G), subgroup_matrices(shear_group(ctx))
    for ia in range(9):
        for ib in range(3):
            m = mats[ia + 9 * ib]
            assert np.array_equal(m[:2, :2], shear[ia])
            assert m[2, 2] == 1
            assert not m[:2, 2].any() and not m[2, :2].any()
    assert verify_regular_subgroup(G).ok


def _product_factors():
    for q in (3, 5):
        ctx = FieldContext(q)
        yield f"shear-translation1-q{q}", shear_group(ctx), translation_group(ctx, 1)
        yield f"translation1-shear-q{q}", translation_group(ctx, 1), shear_group(ctx)
        yield f"shear-shear-q{q}", shear_group(ctx), shear_group(ctx)
    ctx = FieldContext(3)
    yield "series4i1-series2i1-q3", series_group(ctx, 4, 1), series_group(ctx, 2, 1)
    yield "translation2-series3i1-q3", translation_group(ctx, 2), series_group(ctx, 3, 1)
    ctx = FieldContext(2)
    yield "translation3-translation2-q2", translation_group(ctx, 3), translation_group(ctx, 2)


PRODUCT_FACTORS = list(_product_factors())


@pytest.mark.parametrize("G1,G2", [(a, b) for _, a, b in PRODUCT_FACTORS], ids=[n for n, _, _ in PRODUCT_FACTORS])
def test_direct_product_matches_block_loop_oracle(G1, G2):
    G = direct_product(G1, G2)
    assert G.r == G1.r + G2.r
    assert np.array_equal(G.cols, block_product_cols(G1, G2))


def test_product_of_shears_premises():
    ctx = FieldContext(3)
    G = direct_product(shear_group(ctx), shear_group(ctx))
    tau = iterate_perms(shear_swap_perm(ctx), shear_swap_perm(ctx))
    assert verify_regular_subgroup(G).ok
    assert verify_automorphism(G, tau).ok


def test_iterate_perms_frozen_spot_check():
    ctx = FieldContext(3)
    tau = iterate_perms(shear_swap_perm(ctx), identity_perm(ctx, 1))
    src = vec_to_index(3, [1, 0, 2])  # (1,0)|(2)
    dst = vec_to_index(3, [0, 1, 2])  # image (0,1)|(2)
    assert tau.images[src] == dst
    assert tau.images[0] == 0


def test_group_element_accessor():
    # the element translating 0 to a = (0, 1) is the row idx(a) of the table
    G = shear_group(FieldContext(3))
    assert subgroup_matrices(G)[vec_to_index(3, [0, 1])].tolist() == [[1, 2], [0, 1]]


def test_series_perm_structure():
    ctx = FieldContext(3)
    assert np.array_equal(series_perm(ctx, 4, 0).images, np.arange(81))
    assert np.array_equal(series_perm(ctx, 2, 1).images, shear_swap_perm(ctx).images)
    expected = iterate_perms(shear_swap_perm(ctx), identity_perm(ctx, 2))
    assert np.array_equal(series_perm(ctx, 4, 1).images, expected.images)
    with pytest.raises(ValueError):
        series_perm(ctx, 4, 3)
    with pytest.raises(ValueError):
        series_perm(ctx, 3, -1)


def test_series_group_matches_series_perm():
    ctx = FieldContext(3)
    for r, copies in ((2, 1), (3, 1), (4, 2), (4, 0)):
        G = series_group(ctx, r, copies)
        tau = series_perm(ctx, r, copies)
        assert verify_regular_subgroup(G).ok
        assert verify_automorphism(G, tau).ok


def _series_instances():
    for q in (3, 5, 7):
        for r in range(1, 7):
            yield from ((q, r, copies) for copies in range(r // 2 + 1))
    yield from ((2, r, 0) for r in range(1, 9))


@pytest.mark.parametrize("q,r,copies", list(_series_instances()))
def test_series_split_halves_compose_to_the_whole(q, r, copies):
    # the blocks and the identity tail, or with no tail all blocks but the
    # last and the last; each pair of halves combines into the series itself
    series = Series(FieldContext(q), r, copies)
    if copies >= 1 and r > 2 * copies:
        shapes = [(2 * copies, copies), (r - 2 * copies, 0)]
    elif copies >= 2 and r == 2 * copies:
        shapes = [(2 * copies - 2, copies - 1), (2, 1)]
    else:
        assert series.split is None
        return
    left, right = series.split
    assert [(left.r, left.copies), (right.r, right.copies)] == shapes
    assert np.array_equal(iterate_perms(left.perm, right.perm).images, series.perm.images)
    assert np.array_equal(direct_product(left.group, right.group).cols, series.group.cols)


def test_series_record_builds_each_table_once():
    ctx = FieldContext(3)
    series = Series(ctx, 5, 2)
    assert series.perm is series.perm and series.group is series.group
    assert np.array_equal(series.perm.images, series_perm(ctx, 5, 2).images)
    assert np.array_equal(series.group.cols, series_group(ctx, 5, 2).cols)


def test_series_tables_refuse_past_the_guard_before_any_allocation():
    # each q**r table tests q**r against the guard before it allocates;
    # unguarded, (2,28) asks for a 2 GiB arange and a 2**28 x 28 int64 table
    ctx = FieldContext(2)
    series = Series(ctx, 40, 0)
    message = re.escape("q**r = 1099511627776 exceeds the materialization guard 1048576")
    tracemalloc.start()
    try:
        for table in ("perm", "group"):
            with pytest.raises(ValueError, match=message):
                getattr(series, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for table in ("perm", "group"):
        with pytest.raises(ValueError, match=re.escape("q**r = 268435456 exceeds the materialization guard")):
            getattr(Series(ctx, 28, 0), table)
    with pytest.raises(ValueError, match=re.escape("the shear subgroup needs q >= 3")):
        Series(ctx, 4, 1)


def test_shear_translation_parts_cover_the_plane():
    # g^i h^j translates by (i + j(j-1), j); for every prime q >= 3 these q**2
    # parts are distinct, so the shear swap is a permutation of the plane
    for q in (p for p in range(3, 256) if is_prime(p)):
        i, j = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        assert np.unique((i + j * (j - 1)) % q + q * j).size == q * q
        assert np.array_equal(np.sort(affine._shear_swap(q)), np.arange(q * q))


BUILTIN_INSTANCES = [
    (q, r, copies)
    for q, r, copies in [*_series_instances(), (2, 10, 0), (3, 6, 3), (2, 14, 0), (3, 8, 4), (5, 6, 3), (7, 4, 2)]
    if q**r <= VERIFY_GUARD
]


@pytest.mark.parametrize("q,r,copies", BUILTIN_INSTANCES)
def test_series_tables_are_the_block_fold(q, r, copies):
    # one pass from the block formulas gives the tables that validating
    # every intermediate direct_product and iterate_perms fold gave
    series = Series(FieldContext(q), r, copies)
    group, perm = series_fold(FieldContext(q), r, copies)
    assert np.array_equal(series.group.cols, group.cols)
    assert np.array_equal(series.perm.images, perm.images)


@pytest.mark.parametrize("q,r,copies", BUILTIN_INSTANCES)
def test_unit_points_are_the_searched_generators(q, r, copies):
    # two routes that agree: the unit points, accepted in one batched pass,
    # give the gens, rows and verdict of the search one candidate at a time;
    # tau swaps the unit points of each block and fixes the tail's
    series = Series(FieldContext(q), r, copies)
    G, perm = series.group, series.perm
    units = [q**k for k in range(r)]
    gens, rows, detail = G.generating_set
    searched = searched_generators(G)
    assert gens == searched[0] == units
    assert np.array_equal(rows, searched[1]) and detail == searched[2] == ""
    swap = [k ^ 1 if k < 2 * copies else k for k in range(r)]
    assert perm.images[units].tolist() == [units[k] for k in swap]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_search_completes_unit_points_that_miss_a_point(q):
    # the shear subgroup carried through the linear map L with L^-1 e_0 =
    # (0,1) and L^-1 e_1 = (2,2): its unit points are h and h**2 (see
    # _shear_swap), which reach only <h>, so the search adds a generator
    ctx = FieldContext(q)
    G, perm = shear_group(ctx), shear_swap_perm(ctx)
    vecs, powers, mats = all_vectors(q, 2), field_powers(q, 2), subgroup_matrices(G)
    inverse = np.array([[0, 2], [1, 2]])
    back = vecs @ inverse.T % q @ powers  # the point p comes from back[p]
    forth = np.argsort(back)
    cols = forth[(mats[back] @ inverse % q).transpose(0, 2, 1) @ powers]
    H, tau = RegularSubgroup(ctx, 2, cols), PermTable(ctx, 2, forth[perm.images[back]])
    gens, _, detail = H.generating_set
    assert gens[:2] == [1, q] and len(gens) == 3 and detail == ""
    assert _cross_check(H, tau)
    assert len(searched_generators(H)[0]) == 2
    cols[gens[2], 0] = (cols[gens[2], 0] + 1) % H.size
    bad = RegularSubgroup(ctx, 2, cols)
    assert not _cross_check(bad, tau)
    assert verify_regular_subgroup(bad).detail == searched_generators(bad)[2]


SERIES_BASES = [(3, 4, 1), (3, 4, 2), (5, 3, 1), (2, 5, 0)]


@pytest.mark.parametrize("q,r,copies", SERIES_BASES)
def test_mutations_of_a_series_table_meet_the_exhaustive_oracles(q, r, copies):
    series = Series(FieldContext(q), r, copies)
    G, perm = series.group, series.perm
    units, size = [q**k for k in range(r)], G.size
    rng = np.random.default_rng(100 * q + 10 * r + copies)
    others = np.setdiff1d(np.arange(1, size), units)
    for _ in range(6):  # a wrong column at a non-generator point breaks closure
        a, j = int(rng.choice(others)), int(rng.integers(r))
        cols = G.cols.copy()
        cols[a, j] = (cols[a, j] + rng.integers(1, size)) % size
        bad = RegularSubgroup(G.ctx, r, cols)
        assert not _cross_check(bad, perm)
        assert verify_regular_subgroup(bad).detail.startswith("closure fails at a=index ")
    for k, s in enumerate(units):  # a unit point whose matrix repeats a column
        cols = G.cols.copy()
        cols[s, 1] = cols[s, 0]
        bad = RegularSubgroup(G.ctx, r, cols)
        assert not _cross_check(bad, perm)
        detail = verify_regular_subgroup(bad).detail
        assert detail == searched_generators(bad)[2]
        if k == 0:  # later unit points meet the changed matrix in their closure
            assert detail == f"matrix at index {s} is singular"
    for _ in range(6):  # two images swapped: no automorphism moves only two points
        a, b = rng.choice(np.arange(1, size), size=2, replace=False)
        images = perm.images.copy()
        images[[a, b]] = images[[b, a]]
        assert not _cross_check(G, PermTable(G.ctx, r, images))


@pytest.mark.parametrize("batch", [1, 5, 40, 300])
@pytest.mark.parametrize("q,r,copies", [(3, 4, 2), (5, 3, 1), (2, 6, 0)])
def test_batched_pass_is_the_same_in_every_step(monkeypatch, batch, q, r, copies):
    # each step of the span holds at most codes.BATCH cells (one point at
    # least), and the tables, generating sets and first failures do not
    # depend on the step; the mutants are a wrong column at the last point
    # and a tau with the images of 1 and the last point swapped
    series = Series(FieldContext(q), r, copies)
    G, perm = series.group, series.perm
    cols = G.cols.copy()
    cols[-1, 0] = (cols[-1, 0] + 1) % G.size
    images = perm.images.copy()
    images[[1, -1]] = images[[-1, 1]]
    tau = PermTable(G.ctx, r, images)

    def outcome():
        mutant = RegularSubgroup(G.ctx, r, cols)
        fresh = RegularSubgroup(G.ctx, r, G.cols)
        return (
            affine._left_rows(fresh, [q**k for k in range(r)]),
            fresh.generating_set,
            verify_regular_subgroup(mutant).detail,
            verify_automorphism(fresh, tau).detail,
        )

    whole = outcome()
    spans = []
    monkeypatch.setattr(affine, "span_table", lambda q, columns: spans.append(columns.shape) or span_table(q, columns))
    monkeypatch.setattr(codes, "BATCH", batch)
    stepped = outcome()
    assert spans and all(rows * q**m <= batch or m == 0 for rows, m in spans)
    for before, after in zip(whole[0] + whole[1][1:2], stepped[0] + stepped[1][1:2]):
        assert np.array_equal(before, after)
    assert whole[1][::2] == stepped[1][::2] and whole[2:] == stepped[2:]
    assert whole[2].startswith("closure fails") and whole[3].startswith("automorphism law fails")


def test_first_candidate_failures_return_results():
    # M_1 is the first candidate generator; M_0 != I leaves no candidate at all
    ctx = FieldContext(3)
    G = shear_group(ctx)
    tau = shear_swap_perm(ctx)
    cols = G.cols.copy()
    cols[1] = [4, 4]  # [[1,1],[1,1]]
    singular = RegularSubgroup(ctx, 2, cols)
    assert verify_regular_subgroup(singular).detail == "matrix at index 1 is singular"
    assert isinstance(verify_automorphism(singular, tau), CheckResult)
    cols = G.cols.copy()
    cols[0] = [2, 3]  # [[2,0],[0,1]]
    moved = RegularSubgroup(ctx, 2, cols)
    assert verify_regular_subgroup(moved).detail == "matrix at index 0 is not the identity"
    assert isinstance(verify_automorphism(moved, tau), CheckResult)


@pytest.mark.parametrize(
    "q,r,indices,column,accepted",
    [(2, 2, [1], [1, 1], []), (2, 3, [2, 3], [1, 2, 1], [1]), (7, 2, [1], [8, 16], [])],
)
def test_singular_generator_is_named(q, r, indices, column, accepted):
    # the q = 2 and q = 7 cases of the q = 3 one above: the matrices at
    # indices repeat a column, and every earlier candidate is accepted.  At
    # (2, 3), M_2 = M_3 keeps closure at the generator 1 = e_0 intact, so the
    # singular M_2 is met as the second candidate.  [8, 16] is [[1,2],[1,2]].
    ctx = FieldContext(q)
    cols = translation_group(ctx, r).cols.copy()
    cols[indices] = column
    G = RegularSubgroup(ctx, r, cols)
    assert verify_regular_subgroup(G).detail == f"matrix at index {indices[0]} is singular"
    assert G.generating_set[0] == accepted
    assert not exhaustive_regular_subgroup(G).ok
    assert not is_invertible(ctx, subgroup_matrices(G)[indices[0]])


def test_generating_set_is_small():
    # each generator multiplies the reached subgroup by at least q
    ctx = FieldContext(3)
    gens, rows, detail = _generators(series_group(ctx, 4, 2))
    assert detail == "" and 1 <= len(gens) <= 4 and len(rows) == len(gens)
    gens, _, _ = _generators(translation_group(FieldContext(2), 8))
    assert gens == [1 << k for k in range(8)]


# -- the generator route against the exhaustive oracles -------------------------


def _point(G, a, b):
    """idx(a + M_a b) for point indices a and b."""
    vecs = all_vectors(G.ctx.q, G.r)
    return int((vecs[a] + subgroup_matrices(G)[a] @ vecs[b]) % G.ctx.q @ field_powers(G.ctx.q, G.r))


def _pair(detail):
    return (int(x) for x in re.search(r"a=index (\d+), b=index (\d+)", detail).groups())


def _assert_subgroup_detail_breaks(G, detail):
    q, mats = G.ctx.q, subgroup_matrices(G)
    if detail == "matrix at index 0 is not the identity":
        assert not np.array_equal(mats[0], np.eye(G.r))
    elif "singular" in detail:
        ia = int(re.search(r"index (\d+)", detail).group(1))
        assert not is_invertible(G.ctx, mats[ia])
    else:
        ia, ib = _pair(detail)
        product = mats[ia] @ mats[ib] % q
        assert not np.array_equal(mats[_point(G, ia, ib)], product)


def _assert_automorphism_detail_breaks(G, perm, detail):
    ia, ib = _pair(detail)
    ta, tb = int(perm.images[ia]), int(perm.images[ib])
    assert perm.images[_point(G, ia, ib)] != _point(G, ta, tb)


def _cross_check(G, perm):
    sub, aut = verify_regular_subgroup(G), verify_automorphism(G, perm)
    assert sub.ok == exhaustive_regular_subgroup(G).ok
    if sub.ok:  # the automorphism verdict is exact on a group
        assert aut.ok == exhaustive_automorphism(G, perm).ok
    if not sub.ok:
        _assert_subgroup_detail_breaks(G, sub.detail)
    if not aut.ok:
        _assert_automorphism_detail_breaks(G, perm, aut.detail)
    return sub.ok and aut.ok


def _instances():
    for q in (3, 5, 7):
        ctx = FieldContext(q)
        yield f"shear-q{q}", shear_group(ctx), shear_swap_perm(ctx)
    ctx = FieldContext(3)
    for r, i in ((4, 0), (4, 1), (4, 2), (5, 2)):
        yield f"series-q3r{r}i{i}", series_group(ctx, r, i), series_perm(ctx, r, i)
    for q, r in ((5, 3), (2, 8)):
        ctx = FieldContext(q)
        yield f"identity-q{q}r{r}", translation_group(ctx, r), identity_perm(ctx, r)


INSTANCES = list(_instances())


@pytest.mark.parametrize("G,perm", [(G, p) for _, G, p in INSTANCES], ids=[n for n, _, _ in INSTANCES])
def test_generator_route_matches_exhaustive(G, perm):
    assert _cross_check(G, perm)


def _spy_left_rows(monkeypatch):
    calls = []
    true_left_rows = affine._left_rows

    def spy(G, points):
        calls.append(list(points))
        return true_left_rows(G, points)

    monkeypatch.setattr(affine, "_left_rows", spy)
    return calls


@pytest.mark.parametrize("G,perm", [(G, p) for _, G, p in INSTANCES], ids=[n for n, _, _ in INSTANCES])
def test_automorphism_law_reads_the_generator_rows(monkeypatch, G, perm):
    # every builtin permutation sends generators to generators
    G.generating_set
    calls = _spy_left_rows(monkeypatch)
    assert verify_automorphism(G, perm).ok
    assert calls == []


def test_automorphism_law_builds_a_row_for_a_non_generator_image(monkeypatch):
    # a -> [[1,1],[0,1]] a fixes the generator 1 = (1,0) and sends the
    # generator 5 = (0,1) to (1,1), index 6, which is no generator
    ctx = FieldContext(5)
    G = translation_group(ctx, 2)
    tau = linear_perm(ctx, [[1, 1], [0, 1]])
    assert G.generating_set[0] == [1, 5]
    calls = _spy_left_rows(monkeypatch)
    assert verify_automorphism(G, tau).ok
    assert calls == [[6]]
    assert _cross_check(G, tau)


def test_automorphism_law_is_tested_on_every_generator():
    # (x, y) -> (x, pi(y)) with pi not additive commutes with the first
    # generator, the translation by (1, 0), and breaks the law at (0, 1)
    ctx = FieldContext(5)
    G = translation_group(ctx, 2)
    tau = iterate_perms(identity_perm(ctx, 1), PermTable(ctx, 1, np.array([0, 2, 1, 3, 4])))
    assert _generators(G)[0] == [1, 5]
    assert not _cross_check(G, tau)
    assert verify_automorphism(G, tau).detail.startswith("automorphism law fails at a=index 5,")


def test_group_premises_build_one_generating_set(monkeypatch, capsys):
    # both premise checks read the subgroup's cached generating set
    calls = []

    def spy(G):
        calls.append(G.size)
        return _generators(G)

    monkeypatch.setattr(affine, "_generators", spy)
    argv = ["verify", "--q", "3", "--r", "4", "--tau", "builtin:series", "--i", "2", "--checks", "group_premises"]
    assert main(argv) == 0
    assert '"result": "pass"' in capsys.readouterr().out
    assert calls == [81]


def _mutate(kind, G, perm, rng):
    size = G.size
    cols, images = G.cols.copy(), perm.images.copy()
    if kind == "entry":  # one column of one matrix becomes another vector
        a, j = int(rng.integers(size)), int(rng.integers(G.r))
        cols[a, j] = (cols[a, j] + rng.integers(1, size)) % size
    elif kind == "swap":
        a, b = rng.choice(size, size=2, replace=False)
        cols[[a, b]] = cols[[b, a]]
    elif kind == "singular":  # a non-generator's matrix repeats a column
        others = np.setdiff1d(np.arange(1, size), _generators(G)[0])
        a = int(rng.choice(others))
        i, j = rng.choice(G.r, size=2, replace=False)
        cols[a, j] = cols[a, i]
    else:
        a, b = rng.choice(np.arange(1, size), size=2, replace=False)
        images[[a, b]] = images[[b, a]]
    return RegularSubgroup(G.ctx, G.r, cols), PermTable(perm.ctx, perm.r, images)


MUTATION_BASES = [inst for inst in INSTANCES if inst[0] in ("shear-q5", "series-q3r4i1", "series-q3r4i2")]


@pytest.mark.parametrize("kind", ["entry", "swap", "singular", "tau"])
@pytest.mark.parametrize("G,perm", [(G, p) for _, G, p in MUTATION_BASES], ids=[n for n, _, _ in MUTATION_BASES])
def test_generator_route_matches_exhaustive_on_mutations(G, perm, kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    rejected = 0
    for _ in range(12):
        rejected += not _cross_check(*_mutate(kind, G, perm, rng))
    if kind in ("entry", "singular"):
        assert rejected == 12  # a changed matrix always breaks the premises


def test_perm_text_round_trip(tmp_path):
    ctx = FieldContext(3)
    tau = shear_swap_perm(ctx)
    path = tmp_path / "tau.txt"
    write_perm(path, tau)
    assert path.read_text() == "3 2\n0 3 8 1 4 6 5 7 2\n"
    back = read_perm(path)
    assert back.ctx == ctx and back.r == 2
    assert np.array_equal(back.images, tau.images)


def test_perm_parse_errors(tmp_path):
    path = tmp_path / "tau.txt"

    path.write_text("3\n0 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        read_perm(path)

    path.write_text("3 1\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_perm(path)  # wrong count

    path.write_text("3 1\n0 1 1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_perm(path)  # not a bijection

    path.write_text("3 1\n1 0 2\n")
    with pytest.raises(ParseError, match="line 2"):
        read_perm(path)  # moves 0

    path.write_text("3 1\n0 5 1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_perm(path)  # index out of range

    path.write_text("3 1\n0 1 2\n0 2 1\n")
    with pytest.raises(ParseError, match="line 3: unexpected content after the image line"):
        read_perm(path)  # a second image line

    path.write_text("3 1\n0 1 2\n\n  \nx\n")
    with pytest.raises(ParseError, match="line 5"):
        read_perm(path)  # content after blank lines

    path.write_text("3 1\n0 1 1\n0 1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        read_perm(path)  # the first faulty line is named


@pytest.mark.parametrize(
    "images,message",
    [
        ("0 x 2", "image indices must be integers"),
        ("0 -1 2", "image indices must lie in [0, 2]"),
        ("0 99999999999999999999999 2", "image indices must lie in [0, 2]"),
        ("0 99999999999999999999999 x", "image indices must be integers"),
    ],
)
def test_perm_image_line_messages(tmp_path, images, message):
    # an entry past int64 is out of range, but a token that is no integer
    # is named first, wherever it stands on the line
    path = tmp_path / "tau.txt"
    path.write_text(f"3 1\n{images}\n")
    with pytest.raises(ParseError, match=re.escape(f"line 2: {message}")):
        read_perm(path)


def test_perm_file_may_end_in_blank_lines(tmp_path):
    path = tmp_path / "tau.txt"
    for text in ["3 1\n0 2 1", "3 1\n0 2 1\n", "3 1\n0 2 1\n\n \t\n"]:
        path.write_text(text)
        assert read_perm(path).images.tolist() == [0, 2, 1]
