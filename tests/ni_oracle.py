"""The tuple walk of the NI checkers, kept as the reference oracle.

`check` has the signature of `ni._check` and walks every state of the
space in order, the product of the domains with the last slot varying
fastest, comparing each state with its group's first state. One
committed run serves every tuple that agrees with an explored one on
each slot the run read (`_shared_runs`), and its windows, each run once
by the step oracle (`windows`), give both its read set and its nodes.
`sliced_check` keys that memo on the read slots relevant to the check's
projections (contracts.relevant_slots), as ni._check's cubes are, so it
serves the states the cube walk serves; `check` keys it on every read
slot. Tests
patch `ni._check` with either, so the three public checkers run on
either engine, and patch `_shared_runs` with a per-state path to check
the memo itself.
"""

import functools
import itertools

from rmikit.contracts import (TraceDag, enforce_enum_cap, relevant_slots,
                              simulate_committed, trace_set_to_json)
from rmikit.ni import NiVerdict, _components, _public, _state

import step_oracle


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


def _slots(table):
    """The ({register: slot}, {address: slot}) of a component table."""
    registers, cells = {}, {}
    for i, (name, key, _, _) in enumerate(table):
        (registers if name == "regs" else cells)[key] = i
    return registers, cells


def windows(run, projections, reads):
    """The window map of `run` under the options of `projections` (None
    for a constant), `{(step, target): (steps, read slots)}`: each window
    run once by the step oracle from its snapshot, its slots listed by
    `reads` (step_oracle.Reads), in the order of the projections'
    options."""
    found = {}
    for projection in projections:
        if projection is None:
            continue
        for pos, choices in projection.options(run):
            for target in choices[1:]:
                if (pos, target) not in found:
                    steps = step_oracle.window(run.program, run.resume[pos],
                                               target, run.layout)
                    found[pos, target] = steps, reads(steps, target)
    return found


def _shared_runs(program, base, table, layout, projections, derive,
                 relevant=None):
    """`derive(run, windows)` of the committed run of each observed tuple
    and its window map (`windows`), where one run serves every tuple that
    agrees on the slots it read, or on those of them in `relevant` unless
    it is None.

    A deterministic run depends only on the components of the initial
    state it reads, and step_oracle.Reads lists their slots: those of its
    committed steps and of each window in its map. The memo maps each
    distinct read set to a dict from the values on it to the result. The
    last tuple of a check's walk is never entered: no later tuple of the
    walk can probe it.
    """
    reads = step_oracle.Reads(program, *_slots(table))
    last = tuple(domain[-1] for *_, domain in table)
    memo = {}

    def observe(values):
        for read_set, results in memo.items():
            result = results.get(tuple([values[i] for i in read_set]))
            if result is not None:
                return result
        run = simulate_committed(program, _state(base, table, values), layout)
        ran = windows(run, projections, reads)
        result = derive(run, ran)
        if values != last:
            read_set = tuple(slot for slot in dict.fromkeys(
                reads(run.steps) + [slot for _, slots in ran.values()
                                    for slot in slots])
                if relevant is None or slot in relevant)
            memo.setdefault(read_set, {})[
                tuple([values[i] for i in read_set])] = result
        return result

    return observe


def check(program, space, layout, projections, detail_names, policy=None,
          sliced=False):
    """The tuple walk: every state in order, grouped by its run's key plus,
    for direct NI, its public projection; the first state whose value
    differs from its group's first state's ends the walk, and the pair,
    shrunk, is the witness. Spaces of more than ENUM_CAP states are
    refused. A `sliced` walk keys its memo on the relevant read slots."""
    enforce_enum_cap(space.size(), "states")
    table = _components(space, layout)
    slots = () if policy is None else _public(table, policy)
    base, dag = space.base_state, TraceDag()
    relevant = frozenset().union(*(
        relevant_slots(program, *_slots(table), p.leak.kind)
        for p in projections if p is not None)) if sliced else None

    def derive(run, ran):
        """The run's node under each projection: the cap checked first
        (TraceDag.parts), then the windows of `ran` spliced in."""
        nodes = []
        for projection in projections:
            node = None
            if projection is not None:
                view = projection.leak.kind, projection.options(run)
                node = dag.splice(ran, *view, dag.parts(run.steps, *view))
            nodes.append(node)
        return tuple(nodes)

    run_result = _shared_runs(program, base, table, layout, projections,
                              derive, relevant)

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


sliced_check = functools.partial(check, sliced=True)
