"""The tuple walk of the NI checkers, kept as the reference oracle.

`check` has the signature of `ni._check` and walks every state of the
space in order, the product of the domains with the last slot varying
fastest, comparing each state with its group's first state. One
committed run serves every tuple that agrees with an explored one on
each slot the run read (`_shared_runs`). Tests patch `ni._check` with
`check`, so the three public checkers run on either engine, and patch
`_shared_runs` with a per-state path to check the memo itself.
"""

import itertools

from rmikit.contracts import (TraceDag, enforce_enum_cap, read_walk,
                              simulate_committed, trace_set_to_json)
from rmikit.ni import NiVerdict, _components, _public, _state


def _shrink(a, b, table, observe):
    """Greedy witness minimization: reset slots to their base values, one
    at a time in both tuples, while the violation persists, skipping a
    slot whose base value lies outside its domain. `a` and `b` are
    (tuple, value) pairs, and so is the result."""
    changed = True
    while changed:
        changed = False
        for i, (_, _, base_value, domain) in enumerate(table):
            if base_value not in domain:
                continue
            na, nb = (v[:i] + (base_value,) + v[i + 1:] for v in (a[0], b[0]))
            if (na, nb) == (a[0], b[0]):
                continue
            (key_a, value_a), (key_b, value_b) = observe(na), observe(nb)
            if key_a == key_b and value_a != value_b:
                a, b = (na, value_a), (nb, value_b)
                changed = True
    return a, b


def _shared_runs(program, base, table, layout, derive):
    """`derive(run)` of the committed run of each observed tuple, where one
    run serves every tuple that agrees on the slots it read.

    A deterministic run depends only on the components of the initial
    state it reads, and `contracts.read_walk` lists their slots once
    `derive` has forced the check's windows. The memo maps each distinct
    read set to a dict from the values on it to the result. The last
    tuple of a check's walk is never entered: no later tuple of the walk
    can probe it.
    """
    registers, cells = {}, {}
    for i, (name, key, _, _) in enumerate(table):
        (registers if name == "regs" else cells)[key] = i
    reads = read_walk(program, registers, cells)
    last = tuple(domain[-1] for *_, domain in table)
    memo = {}

    def observe(values):
        for read_set, results in memo.items():
            result = results.get(tuple([values[i] for i in read_set]))
            if result is not None:
                return result
        run = simulate_committed(program, _state(base, table, values), layout)
        result = derive(run)
        if values != last:
            read_set = reads(run)
            memo.setdefault(read_set, {})[
                tuple([values[i] for i in read_set])] = result
        return result

    return observe


def check(program, space, layout, derive, detail_names, policy=None):
    """The tuple walk: every state in order, grouped by its run's key plus,
    for direct NI, its public projection; the first state whose value
    differs from its group's first state's ends the walk, and the pair,
    shrunk, is the witness. Spaces of more than ENUM_CAP states are
    refused."""
    enforce_enum_cap(space.size(), "states")
    table = _components(space, layout)
    slots = () if policy is None else _public(table, policy)
    base, dag = space.base_state, TraceDag()
    run_result = _shared_runs(program, base, table, layout,
                              lambda run: derive(dag, run))

    def observe(values):
        key, value = run_result(values)
        return (tuple([values[i] for i in slots]), key), value

    groups = {}
    pairs = 0
    for values in itertools.product(*(domain for *_, domain in table)):
        key, value = observe(values)
        if key not in groups:
            groups[key] = (values, value)
            continue
        pairs += 1
        if value != groups[key][1]:
            (a, value_a), (b, value_b) = _shrink(
                groups[key], (values, value), table, observe)
            name_a, name_b = detail_names
            return NiVerdict(
                holds=False, witness=(_state(base, table, a),
                                      _state(base, table, b)),
                witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                                name_b: trace_set_to_json(dag.traces(value_b))},
                pairs_checked=pairs)
    return NiVerdict(holds=True, pairs_checked=pairs)
