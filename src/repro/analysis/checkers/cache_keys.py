"""Cache-key completeness: every result-affecting knob must be keyed.

The serving stack has three caches whose keys must stay complete as
options grow — the result cache (``service.request_key``), the plan
cache (``query.plan.plan_key``) and the link-structure cache (keyed
inline in ``build_candidate_links_vectorized``). PR 5 and PR 7 both
had review rounds over ``QueryOptions`` fields missing from
``request_key``; a stale key silently serves wrong results, the worst
failure mode a cache has.

``REP301``
    A ``QueryOptions`` field is neither read by ``request_key`` nor
    listed in ``RESULT_NEUTRAL_OPTIONS`` (the explicit, documented
    exclusion list living next to ``request_key``). Adding a new
    option forces a conscious decision: key it, or declare it
    result-neutral.

``REP302``
    The exclusion list drifted: it names a field ``QueryOptions`` no
    longer has, or a field ``request_key`` *does* read (an exclusion
    that is not excluding anything hides intent).

``REP303``
    A registered key-builder function no longer references one of its
    required ingredients — e.g. ``plan_key`` without ``histogram_epoch``
    would survive compaction with plans costed on stale histograms,
    ``request_key`` without ``graph_version`` would serve pre-update
    results, ``plan_key`` without
    ``milli`` (:func:`repro.index.grid.milli`, the grid's rounding
    rule) would fragment the milli-bucket sharing contract.

The checker is corpus-wide and self-disabling: when the corpus does not
contain both ``QueryOptions`` and ``request_key`` (fixture runs, other
projects) the completeness rules simply do not engage. The whole-repo
test asserts they *do* engage on ``src/repro``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Diagnostic, ProjectChecker

#: Key-builder contracts: (function name, required identifier tokens).
#: A token is satisfied by any Name, Attribute or keyword-argument
#: reference inside the function body.
KEY_BUILDER_CONTRACTS = {
    "request_key": {"canonical_form", "graph_version"},
    "plan_key": {"canonical_form", "milli", "histogram_epoch", "max_length"},
    "build_candidate_links_vectorized": {
        "pair_signature", "fingerprint", "milli", "graph_version",
    },
}

#: Name of the exclusion-list constant expected beside request_key.
EXCLUSION_CONSTANT = "RESULT_NEUTRAL_OPTIONS"


def _identifier_tokens(node: ast.AST) -> set:
    """Every Name id, Attribute attr and keyword arg used under ``node``."""
    tokens: set = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            tokens.add(child.id)
        elif isinstance(child, ast.Attribute):
            tokens.add(child.attr)
        elif isinstance(child, ast.keyword) and child.arg:
            tokens.add(child.arg)
    return tokens


def _options_attr_reads(func: ast.AST, param: str) -> set:
    """Attributes read off the ``param`` argument inside ``func``."""
    reads: set = set()
    for child in ast.walk(func):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == param
        ):
            reads.add(child.attr)
    return reads


def _string_elements(node: ast.AST) -> set | None:
    """Literal string elements of a set/frozenset/tuple/list display."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
        node.func.id in ("frozenset", "set", "tuple")
    ):
        if len(node.args) == 1:
            return _string_elements(node.args[0])
        return set()
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elements: set = set()
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                elements.add(element.value)
            else:
                return None  # non-literal member: cannot verify
        return elements
    return None


class CacheKeyChecker(ProjectChecker):
    name = "cache-keys"
    codes = {
        "REP301": "QueryOptions field absent from request_key and the "
                  "exclusion list",
        "REP302": "stale entry in the cache-key exclusion list",
        "REP303": "cache-key builder is missing a required ingredient",
    }

    def check_project(self, sources: list) -> list:
        options_fields: dict = {}   # field -> (path, line)
        builders: dict = {}         # func name -> (source, node)
        exclusions: tuple | None = None  # (set, path, line)

        for source in sources:
            for node in source.nodes(ast.ClassDef):
                if node.name != "QueryOptions":
                    continue
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        options_fields[item.target.id] = (
                            source.path, item.lineno,
                        )
            for node in source.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
                if node.name in KEY_BUILDER_CONTRACTS:
                    builders[node.name] = (source, node)
            for node in source.nodes(ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == EXCLUSION_CONSTANT
                    ):
                        elements = _string_elements(node.value)
                        if elements is not None:
                            exclusions = (elements, source.path, node.lineno)

        diagnostics: list = []

        def flag(code: str, path: str, line: int, message: str) -> None:
            diagnostics.append(Diagnostic(
                code=code, message=message, path=path, line=line,
                checker=self.name,
            ))

        # Builder ingredient contracts (engage per builder found).
        for func_name, required in KEY_BUILDER_CONTRACTS.items():
            found = builders.get(func_name)
            if found is None:
                continue
            source, node = found
            tokens = _identifier_tokens(node)
            for token in sorted(required - tokens):
                flag(
                    "REP303", source.path, node.lineno,
                    f"key builder '{func_name}' no longer references "
                    f"required ingredient '{token}'; a key missing it "
                    "can serve stale or colliding entries",
                )

        # QueryOptions coverage (engages only with both sides present).
        request_key = builders.get("request_key")
        if not options_fields or request_key is None:
            return diagnostics
        source, node = request_key
        params = [arg.arg for arg in node.args.args]
        options_param = "options" if "options" in params else (
            params[2] if len(params) > 2 else None
        )
        keyed = (
            _options_attr_reads(node, options_param)
            if options_param else set()
        )
        excluded, excl_path, excl_line = (
            exclusions if exclusions is not None
            else (set(), source.path, node.lineno)
        )
        if exclusions is None:
            flag(
                "REP302", source.path, node.lineno,
                f"no literal {EXCLUSION_CONSTANT} frozenset found next to "
                "request_key; result-neutral options must be excluded "
                "explicitly, not implicitly",
            )
        for field in sorted(options_fields):
            path, line = options_fields[field]
            if field in keyed and field in excluded:
                flag(
                    "REP302", excl_path, excl_line,
                    f"QueryOptions.{field} is both read by request_key "
                    f"and listed in {EXCLUSION_CONSTANT}; drop one",
                )
            elif field not in keyed and field not in excluded:
                flag(
                    "REP301", path, line,
                    f"QueryOptions.{field} is neither part of request_key "
                    f"nor declared result-neutral in {EXCLUSION_CONSTANT}; "
                    "a result-affecting field outside the key serves "
                    "wrong cached results",
                )
        for name in sorted(excluded - set(options_fields)):
            flag(
                "REP302", excl_path, excl_line,
                f"{EXCLUSION_CONSTANT} lists '{name}' which is not a "
                "QueryOptions field (renamed or removed?)",
            )
        return diagnostics
