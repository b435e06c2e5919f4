"""The lattice path against brute force, and duality, on random orientations and fields.

For every kind, ``enumerate_family`` (strategy ``auto``, the lattice
identities) must equal strategy ``bruteforce``, which filters every subset
through ``is_closed`` and so runs the letter checks and the bounded
kernel/cokernel search of ``_kernel_search``.  Torsion-free classes of A are
the torsion classes of the opposite algebra, in the same index order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcat.catalog import build_builtin
from subcat.lattices import KINDS, enumerate_family

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
