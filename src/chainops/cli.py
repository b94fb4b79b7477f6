"""Command-line front end: element expressions, JSON output, dispatch.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 term guard tripped.  The CHAINOPS_TERM_GUARD environment variable (or
--term-guard) bounds formal-sum sizes.
"""

import argparse
import json
import sys

from . import errors
from .complexes import act, boundary, contract, tensor_elements, TensorComplex
from .errors import GuardExceeded, InvalidInput
from .groups import CyclicGroup, ProductGroup, SymmetricGroup
from .maclane import aw_maclane, cyc_eg, ez_maclane, eg_diagonal, maclane_complex, sym_eg
from .minimal import lambda_power, minimal_complex, multidiagonal_M, phi_to_EC, pi_from_EC
from .morphisms import prism_map, table_reduction
from .perms import Perm
from .rings import GF, ZZ
from .simplex import (
    aw,
    ez_element,
    multidiagonal,
    product_complex,
    simplex_complex,
    tensor_pair,
)
from .surjections import iso, surjection_complex

# -- the element expression grammar ------------------------------------------------


class ExprError(InvalidInput):
    def __init__(self, text, pos, msg):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"syntax error at line {line}, column {col}: {msg}")


def tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*();,":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise ExprError(text, i, f"unexpected character {ch!r}")
    tokens.append(("end", None, len(text)))
    return tokens


class ElementParser:
    """expr := term (('+'|'-') term)*;  term := [int '*'] generator;
    generator := '(' items ')' with comma values or semicolon groups."""

    def __init__(self, complex, ring):
        self.complex = complex
        self.ring = ring

    def parse(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        pairs = []
        sign = 1
        kind, _, _ = self.peek()
        if kind in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        coeff, gen = self.term()
        pairs.append((sign * coeff, gen))
        while True:
            kind, _, at = self.peek()
            if kind == "end":
                break
            if kind not in "+-":
                raise ExprError(text, at, "expected '+' or '-'")
            sign = -1 if self.take()[0] == "-" else 1
            coeff, gen = self.term()
            pairs.append((sign * coeff, gen))
        element = None
        for coeff, gen in pairs:
            canon = self.complex.canonical(gen)
            if canon is None:
                print(
                    f"warning: degenerate generator {self.complex.format_gen(gen)} dropped",
                    file=sys.stderr,
                )
                continue
            term = self.complex.el(self.ring, canon, coeff)
            element = term if element is None else element + term
        if element is None:
            element = self.complex.zero(self.ring, 0)
        return element

    def generator_only(self, text):
        """Parse a single generator (no sums), as the aw/ez rows are."""
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        gen = self.generator()
        kind, _, at = self.peek()
        if kind != "end":
            raise ExprError(text, at, "expected a single generator")
        return gen

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def term(self):
        kind, value, at = self.peek()
        coeff = 1
        if kind == "int":
            self.take()
            k2, _, at2 = self.peek()
            if k2 != "*":
                raise ExprError(self.text, at2, "expected '*' after coefficient")
            self.take()
            coeff = value
        return coeff, self.generator()

    def generator(self):
        kind, _, at = self.take()
        if kind != "(":
            raise ExprError(self.text, at, "expected '('")
        groups = [[]]
        commas = False
        while True:
            kind, value, at = self.take()
            if kind == ")":
                break
            if kind == ";":
                groups.append([])
            elif kind == ",":
                commas = True
                if self.complex_uses_groups():
                    groups.append([])
            elif kind == "int":
                groups[-1].append(value)
            else:
                raise ExprError(self.text, at, f"unexpected {kind!r} in generator")
        return self.build_gen(groups, commas, at)

    def complex_uses_groups(self):
        from .maclane import MacLaneComplex

        return isinstance(self.complex, MacLaneComplex)

    def build_gen(self, groups, commas, at):
        from .maclane import MacLaneComplex
        from .minimal import MinimalComplex

        cplx = self.complex
        if isinstance(cplx, MacLaneComplex):
            group = cplx.group
            entries = []
            for g in groups:
                if not g:
                    raise ExprError(self.text, at, "empty group entry")
                if isinstance(group, SymmetricGroup):
                    entries.append(Perm(g))
                elif isinstance(group, CyclicGroup):
                    if len(g) != 1:
                        raise ExprError(
                            self.text, at, "cyclic entries are single exponents"
                        )
                    entries.append(g[0] % group.n)
                else:
                    raise ExprError(self.text, at, "unsupported MacLane group in CLI")
            return tuple(entries)
        values = [v for g in groups for v in g]
        if isinstance(cplx, MinimalComplex):
            if len(values) != 2:
                raise ExprError(self.text, at, "minimal generators are (i, k) pairs")
            return (values[0], values[1])
        return tuple(values)


# -- complex selection -------------------------------------------------------------


def add_complex_flags(p):
    p.add_argument("--flavor", choices=("aj", "bf", "ms"), help="surjection flavor")
    p.add_argument("--n", type=int, help="arity / group order")
    p.add_argument("--eg", type=int, help="N(E Sigma_n)")
    p.add_argument("--cyclic", type=int, help="N(E C_n)")
    p.add_argument("--minimal", type=int, help="minimal model M(n)")
    p.add_argument("--simplex", type=int, help="N(Delta^m)")


def add_common_flags(p):
    p.add_argument("--ring", default="Z", help="Z or F<p>, e.g. F5")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--term-guard", type=int, default=None)


def ring_of(args):
    spec = args.ring
    if spec in ("Z", "ZZ"):
        return ZZ
    if spec.startswith("F"):
        return GF(int(spec[1:]))
    raise InvalidInput(f"unknown ring {spec!r}")


def complex_of(args):
    if args.flavor:
        if not args.n:
            raise InvalidInput("--flavor needs --n")
        return surjection_complex(args.flavor, args.n)
    if args.eg:
        return sym_eg(args.eg)
    if args.cyclic:
        return cyc_eg(args.cyclic)
    if args.minimal:
        return minimal_complex(args.minimal)
    if args.simplex is not None:
        return simplex_complex(args.simplex)
    raise InvalidInput(
        "select a complex: --flavor/--n, --eg, --cyclic, --minimal, or --simplex"
    )


def read_expr(text):
    if text == "-":
        return sys.stdin.read()
    return text


def parse_in(args, text, cplx=None, ring=None):
    cplx = cplx if cplx is not None else complex_of(args)
    ring = ring if ring is not None else ring_of(args)
    return ElementParser(cplx, ring).parse(read_expr(text))


def emit(args, element):
    if args.format == "json":
        cplx = element.complex
        data = {
            "complex": cplx.name,
            "ring": element.ring.to_json(),
            "degree": element.degree,
            "terms": [
                {"coeff": c, "gen": cplx.encode_gen(g)}
                for g, c in element.items_sorted()
            ],
        }
        if hasattr(cplx, "n"):
            data["n"] = cplx.n
        print(json.dumps(data, sort_keys=True))
    else:
        print(element)


# -- command implementations ---------------------------------------------------------


def cmd_boundary(args):
    emit(args, boundary(parse_in(args, args.expr)))


def cmd_contract(args):
    emit(args, contract(parse_in(args, args.expr)))


def cmd_act(args):
    cplx = complex_of(args)
    x = parse_in(args, args.expr, cplx)
    group = cplx.group
    if group is None:
        raise InvalidInput(f"{cplx.name} carries no group action")
    if isinstance(group, SymmetricGroup):
        g = Perm([int(v) for v in args.g.replace(",", " ").split()])
    elif isinstance(group, CyclicGroup):
        g = int(args.g) % group.n
    else:
        raise InvalidInput("unsupported group")
    emit(args, act(g, x))


def cmd_iso(args):
    cplx = surjection_complex(args.src, args.n)
    x = parse_in(args, args.expr, cplx)
    emit(args, iso(args.src, args.dst, x))


def cmd_tr(args):
    cplx = sym_eg(args.n)
    x = parse_in(args, args.expr, cplx)
    emit(args, table_reduction(args.flavor or "bf", x))


def cmd_pr(args):
    flavor = args.flavor or "bf"
    cplx = surjection_complex(flavor, args.n)
    x = parse_in(args, args.expr, cplx)
    emit(args, prism_map(flavor, x))


def _two_rows(args):
    ring = ring_of(args)
    if args.simplex is not None:
        m1 = args.simplex
        m2 = args.simplex2 if args.simplex2 is not None else m1
        p1 = ElementParser(simplex_complex(m1), ring)
        row1 = p1.generator_only(args.a)
        row2 = ElementParser(simplex_complex(m2), ring).generator_only(args.b)
        return ("simplex", (m1, m2), row1, row2, ring)
    if args.eg:
        g1 = sym_eg(args.eg)
        g2 = sym_eg(args.eg2 or args.eg)
    elif args.cyclic:
        g1 = cyc_eg(args.cyclic)
        g2 = cyc_eg(args.cyclic2 or args.cyclic)
    else:
        raise InvalidInput("aw/ez need --simplex or --eg/--cyclic")
    row1 = ElementParser(g1, ring).generator_only(args.a)
    row2 = ElementParser(g2, ring).generator_only(args.b)
    return ("maclane", (g1, g2), row1, row2, ring)


def cmd_aw(args):
    kind, info, row1, row2, ring = _two_rows(args)
    if len(row1) != len(row2):
        raise InvalidInput("aw needs rows of equal length")
    if kind == "simplex":
        m1, m2 = info
        cplx = product_complex(m1, m2)
        emit(args, aw(cplx.el(ring, (row1, row2))))
    else:
        g1, g2 = info
        prod = maclane_complex(ProductGroup((g1.group, g2.group)))
        gen = tuple(zip(row1, row2))
        emit(args, aw_maclane(prod.el(ring, gen)))


def cmd_ez(args):
    kind, info, row1, row2, ring = _two_rows(args)
    if kind == "simplex":
        m1, m2 = info
        T = tensor_pair(m1, m2)
        x = tensor_elements(
            T,
            simplex_complex(m1).el(ring, row1),
            simplex_complex(m2).el(ring, row2),
        )
        emit(args, ez_element(x))
    else:
        g1, g2 = info
        T = TensorComplex((g1, g2))
        x = tensor_elements(T, g1.el(ring, row1), g2.el(ring, row2))
        emit(args, ez_maclane(x))


def cmd_diagonal(args):
    cplx = complex_of(args)
    x = parse_in(args, args.expr, cplx)
    from .maclane import MacLaneComplex
    from .minimal import MinimalComplex
    from .simplex import SimplexComplex

    if isinstance(cplx, SimplexComplex):
        emit(args, multidiagonal(args.arity, x))
    elif isinstance(cplx, MacLaneComplex):
        emit(args, eg_diagonal(x, args.arity))
    elif isinstance(cplx, MinimalComplex):
        emit(args, multidiagonal_M(args.arity, x))
    else:
        raise InvalidInput(f"no diagonal for {cplx.name}")


def cmd_phi_m(args):
    x = parse_in(args, args.expr, minimal_complex(args.n))
    emit(args, phi_to_EC(x))


def cmd_pi_m(args):
    x = parse_in(args, args.expr, cyc_eg(args.n))
    emit(args, pi_from_EC(x))


def cmd_lambda(args):
    x = parse_in(args, args.expr, minimal_complex(args.n))
    emit(args, lambda_power(args.l, x))


def _parse_arities(spec):
    try:
        vals = [int(v) for v in spec.split(",")]
    except ValueError:
        raise InvalidInput(f"bad arity list {spec!r}")
    if len(vals) < 2 or vals[0] != len(vals) - 1:
        raise InvalidInput("arities must be r,s_1,...,s_r")
    return vals[0], vals[1:]


def cmd_compose(args):
    ring = ring_of(args)
    r, sizes = _parse_arities(args.arities)
    if len(args.exprs) != r + 1:
        raise InvalidInput(f"expected 1 outer and {r} inner elements")
    if args.be:
        outer = ElementParser(sym_eg(r), ring).parse(read_expr(args.exprs[0]))
        inners = [
            ElementParser(sym_eg(s), ring).parse(e)
            for s, e in zip(sizes, args.exprs[1:])
        ]
        from .operads import be_compose

        emit(args, be_compose(outer, inners, ring))
    else:
        flavor = args.flavor or "bf"
        outer = ElementParser(surjection_complex(flavor, r), ring).parse(read_expr(args.exprs[0]))
        inners = [
            ElementParser(surjection_complex(flavor, s), ring).parse(e)
            for s, e in zip(sizes, args.exprs[1:])
        ]
        from .operads import surj_compose

        emit(args, surj_compose(flavor, outer, inners, ring))


def cmd_partial_compose(args):
    ring = ring_of(args)
    flavor = args.flavor or "bf"
    r, s = args.r, args.s
    x = ElementParser(surjection_complex(flavor, r), ring).parse(read_expr(args.x))
    y = ElementParser(surjection_complex(flavor, s), ring).parse(read_expr(args.y))
    from .operads import partial_compose

    emit(args, partial_compose(flavor, args.i, x, y, ring))


def cmd_bf_action(args):
    ring = ring_of(args)
    x = ElementParser(surjection_complex("bf", args.n), ring).parse(read_expr(args.expr))
    from .action import bf_action

    emit(args, bf_action(x, args.m))


def cmd_eval_cochain(args):
    ring = ring_of(args)
    from .action import Cochain, FaceTable, cochain_evaluate, dual_operation, is_integral

    with open(args.faces) as fh:
        table = FaceTable(json.load(fh))
    # cochain files key their values by JSON strings, so other ids never match
    for sid in table.dims:
        if not isinstance(sid, str):
            raise InvalidInput(f"simplex id {sid!r} is not a string")
    cochains = []
    for path in args.cochains:
        with open(path) as fh:
            data = json.load(fh)
        if not (
            isinstance(data, dict)
            and isinstance(data.get("values"), dict)
            and is_integral(data.get("degree"), data["values"])
        ):
            raise InvalidInput(
                f"cochain file {path} needs an integer 'degree' and a 'values' "
                "object of integers"
            )
        cochains.append(Cochain(data["degree"], data["values"]))
    x = ElementParser(surjection_complex("bf", args.n), ring).parse(read_expr(args.x))
    if args.simplex_id is not None:
        print(cochain_evaluate(x, cochains, table, args.simplex_id, ring))
    else:
        out = dual_operation(x, cochains, table, ring)
        print(json.dumps({"degree": out.degree, "values": out.values}, sort_keys=True))


def cmd_constant(args):
    from .action import steenrod_constant

    print(steenrod_constant(args.m, args.p))


def cmd_verify(args):
    from .suites import run_suite

    kw = {}
    if args.n is not None:
        kw["n"] = args.n
    if args.max_degree is not None:
        kw["max_degree"] = args.max_degree
    if args.jobs is not None:
        kw["jobs"] = args.jobs
    if args.m is not None:
        kw["m"] = args.m
    report = run_suite(args.suite, **kw)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "ok": report.ok,
                    "checks": [
                        {
                            "name": c.name,
                            "ok": c.ok,
                            "checked": c.checked,
                            "counterexample": None
                            if c.counterexample is None
                            else str(c.counterexample),
                        }
                        for c in report.checks
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(report)
    if not report.ok:
        sys.exit(1)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chainops",
        description="Exact chain-level computations: surjection complexes, "
        "MacLane models, operads, and cochain operations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        add_common_flags(p)
        return p

    p = new("boundary", cmd_boundary, help="boundary of an element")
    add_complex_flags(p)
    p.add_argument("expr")

    p = new("contract", cmd_contract, help="preferred contraction h")
    add_complex_flags(p)
    p.add_argument("expr")

    p = new("act", cmd_act, help="left group action")
    add_complex_flags(p)
    p.add_argument("--g", required=True, help="permutation images or exponent")
    p.add_argument("expr")

    p = new("iso", cmd_iso, help="flavor isomorphism")
    p.add_argument("--from", dest="src", required=True, choices=("aj", "bf", "ms"))
    p.add_argument("--to", dest="dst", required=True, choices=("aj", "bf", "ms"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(flavor=None, eg=None, cyclic=None, minimal=None, simplex=None)
    p.add_argument("expr")

    p = new("tr", cmd_tr, help="table reduction N(ESigma_n) -> S(n)")
    p.add_argument("--flavor", choices=("aj", "bf", "ms"), default="bf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expr")

    p = new("pr", cmd_pr, help="prism map S(n) -> N(ESigma_n)")
    p.add_argument("--flavor", choices=("aj", "bf", "ms"), default="bf")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expr")

    for name, fn, helptext in (
        ("aw", cmd_aw, "Alexander-Whitney front/back faces"),
        ("ez", cmd_ez, "Eilenberg-Zilber shuffle sum"),
    ):
        p = new(name, fn, help=helptext)
        p.add_argument("--simplex", type=int)
        p.add_argument("--simplex2", type=int)
        p.add_argument("--eg", type=int)
        p.add_argument("--eg2", type=int)
        p.add_argument("--cyclic", type=int)
        p.add_argument("--cyclic2", type=int)
        p.add_argument("a")
        p.add_argument("b")

    p = new("diagonal", cmd_diagonal, help="iterated AW multidiagonal")
    add_complex_flags(p)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("expr")

    p = new("phi-M", cmd_phi_m, help="phi: M -> N(EC)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expr")

    p = new("pi-M", cmd_pi_m, help="pi: N(EC) -> M")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expr")

    p = new("lambda", cmd_lambda, help="the ell-th power map on M")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("expr")

    p = new("compose", cmd_compose, help="operad structure map")
    p.add_argument("--flavor", choices=("aj", "bf", "ms"))
    p.add_argument("--be", action="store_true", help="Barratt-Eccles components")
    p.add_argument("--arities", required=True, help="r,s_1,...,s_r")
    p.add_argument("exprs", nargs="+")

    p = new("partial-compose", cmd_partial_compose, help="partial composition O_i")
    p.add_argument("--flavor", choices=("aj", "bf", "ms"))
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="outer arity")
    p.add_argument("--s", type=int, required=True, help="inner arity")
    p.add_argument("x")
    p.add_argument("y")

    p = new("bf-action", cmd_bf_action, help="Phi(x (x) Delta^m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("expr")

    p = new("eval-cochain", cmd_eval_cochain, help="dual cochain operation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help="surjection element")
    p.add_argument("--faces", required=True, help="face-table JSON")
    p.add_argument("--cochains", nargs="+", required=True)
    p.add_argument("--simplex-id", default=None)

    p = new("constant", cmd_constant, help="the mod-p constant c_{m,p}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = new("verify", cmd_verify, help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--jobs", type=int)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "term_guard", None):
        errors.set_term_guard(args.term_guard)
    try:
        args.fn(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
