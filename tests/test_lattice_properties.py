"""The lattice path against brute force, duality and the closure laws, on random orientations and fields.

For every kind, ``enumerate_family`` (strategy ``auto``, the lattice
identities) must equal strategy ``bruteforce``, which filters every
extension-closed subset through ``is_closed`` and so runs the letter checks
and the kernel/cokernel step of ``_kernel_search``, each letter once per
subset.  Torsion-free classes of A are the torsion classes of the opposite
algebra, in the same index order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcat.catalog import build_builtin
from subcat.closures import SubcatBits, serre_closure, torf_closure, tors_closure
from subcat.lattices import KINDS, _perp_operator, _table_closure, enumerate_family

# an:n for n <= 3 with any orientation; the explicit example adds an:4 over F_2
orientations = st.text(alphabet="<>", max_size=2)


@settings(max_examples=25, deadline=None)
@given(word=orientations, p=st.sampled_from((2, 3, 5)))
@example(word=">>>", p=2)
def test_lattice_path_equals_bruteforce_and_duality(word, p):
    cat = build_builtin(f"an:{len(word) + 1}:{word}", p=p)
    for kind in KINDS:
        assert enumerate_family(cat, kind) == enumerate_family(cat, kind, "bruteforce"), kind
    torf = enumerate_family(cat, "torf").bitsets()
    assert torf == enumerate_family(cat.opposite(), "tors").bitsets()


@settings(max_examples=30, deadline=None)
@given(word=st.text(alphabet="<>", max_size=3), p=st.sampled_from((2, 3)), data=st.data())
def test_closure_laws(word, p, data):
    """Every closure operator is extensive, monotone and idempotent, and its forms agree.

    The chain closures, the Hom-orthogonality perps and the singleton tables
    on an:1 to an:4 with random orientations, on a random pair small <= large.
    """
    cat = build_builtin(f"an:{len(word) + 1}:{word}", p=p)
    full = (1 << cat.n) - 1
    small = data.draw(st.integers(0, full), label="small")
    large = small | data.draw(st.integers(0, full), label="extra")
    chain = {kind: (lambda bits, op=op: op(SubcatBits(cat, bits)).bits)
             for kind, op in (("tors", tors_closure), ("torf", torf_closure),
                              ("serre", serre_closure))}
    ops = {**chain,
           "tors perp": _perp_operator(cat, "tors"), "torf perp": _perp_operator(cat, "torf"),
           "tors table": lambda bits: _table_closure(cat, "tors", bits),
           "torf table": lambda bits: _table_closure(cat, "torf", bits)}
    for name, close in ops.items():
        lo, hi = close(small), close(large)
        assert small & ~lo == 0 and large & ~hi == 0, name  # extensive
        assert lo & ~hi == 0, name  # monotone
        assert close(lo) == lo and close(hi) == hi, name  # idempotent
    for kind in ("tors", "torf"):
        for bits in (small, large):
            assert ops[kind](bits) == ops[f"{kind} perp"](bits) == ops[f"{kind} table"](bits)
