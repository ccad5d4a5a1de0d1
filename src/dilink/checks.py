"""What each construction promises, written once: one function per kind
holds the comparisons of its guarantee and nothing else.  It takes values
its caller already holds (the construction's final guard, which replay
reaches by running the construction again), raises ConstructionFailed on
the first that fails, and otherwise returns the report's check entries,
which the construction's result carries.  ``theorem1_step`` has no
function of its own: its new weights and δ are its ``bipar_z`` step's,
already checked by :func:`bipar_z`.  It reads no geometry and asks for no
linking number."""

from dilink.errors import ConstructionFailed


def _entries(*passed: tuple[str, str]) -> list[dict]:
    return [{"name": n, "passed": True, **({"detail": d} if d else {})} for n, d in passed]


def _delta(delta: int, target: int) -> tuple[str, str]:
    if delta != target:
        raise ConstructionFailed(f"output directionality {delta} differs from target {target}")
    return "directionality", ""


def big_z(parities: list, index_set, n: int, delta: int, target_delta: int) -> list[dict]:
    """The index set is the odd parities, at least n/2 of them; δ is the target."""
    odd = [i for i, w in enumerate(parities) if w == 1]
    if list(index_set) != odd:
        raise ConstructionFailed(f"index set {list(index_set)} is not the odd parities {odd}")
    if 2 * len(odd) < n:
        raise ConstructionFailed(f"linked {len(odd)} of {len(parities)} targets, below {n}/2")
    return _entries(("coverage", f"linked {len(odd)} of {len(parities)} targets"),
                    _delta(delta, target_delta))


def bipar_z(final_x: list, final_y: list, lam: int, delta: int, target_delta: int) -> list[dict]:
    """|lk(Z, T)| > lam for every X and Y target T; δ is the target."""
    for family, values in (("X", final_x), ("Y", final_y)):
        for a, v in enumerate(values):
            if abs(v) <= lam:
                raise ConstructionFailed(f"|lk(Z, {family}_{a})| = {abs(v)} <= {lam}")
    return _entries(("threshold", f"linking values {final_x + final_y}, threshold {lam}"),
                    _delta(delta, target_delta))


def lemma1(parities: list, pairs: int, m: int) -> list[dict]:
    """Every block's triangle pairs have odd total parity; m pairs."""
    for bi, par in enumerate(parities):
        if par != 1:
            raise ConstructionFailed(f"block {bi}: triangle pairs sum to {par} mod 2")
    if pairs != m:
        raise ConstructionFailed(f"found {pairs} odd pairs for {m} blocks")
    blocks = [(f"block-{bi}-parity", f"sum mod 2 = {par}") for bi, par in enumerate(parities)]
    return _entries(*blocks, ("pairs-found", ""))


def prop1(index_set, n: int, omega_table: list) -> list[dict]:
    """At least n shared targets, and a witness ω table of all ones."""
    if len(index_set) < n:
        raise ConstructionFailed(f"rounds agree on only {len(index_set)} targets, need {n}")
    if any(w != 1 for row in omega_table for w in row):
        raise ConstructionFailed(f"witness parity table {omega_table} is not all ones")
    return _entries(("intersection", f"{len(index_set)} shared targets"),
                    ("witness-parities", ""))

