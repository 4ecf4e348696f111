"""Which ``liecodim`` functions the traced run wraps, and under what names.

Span names are ``<module>.<what>``; the module is the layer.  ``liealg`` has
no span of its own because its work happens inside the ``deriv`` and ``ext``
calls.  ``cli.serialize`` is recorded by the benchmark around its own call
of ``canonical_json``.
"""

from __future__ import annotations

from liecodim import canon, classify, cli, deriv, exactla, ext, liealg

from spans import MissingTarget, Tracer, wrap_functions

MODULES = (canon, classify, cli, deriv, exactla, ext, liealg)

FUNCTION_SPANS = (
    ("classify.sweep_points", classify, "sweep_points"),
    ("classify.conjugate", classify, "conjugate_in_shape"),
    ("classify.stage.sweep", classify, "_run_sweep"),
    ("classify.stage.verify", classify, "_verify_template"),
    ("classify.stage.crosscheck", classify, "_crosscheck_conditions"),
    ("classify.stage.distinctness", classify, "distinctness_evidence"),
    ("classify.fingerprint", classify, "fingerprint"),
    ("exactla.eigen_structure", exactla, "eigen_structure"),
    ("exactla.char_poly", exactla, "char_poly"),
    ("exactla.factor", exactla, "_factor_over_rationals"),
    ("exactla.det", exactla.Matrix, "det"),
    ("exactla.rref", exactla, "rref"),
    ("ext.codim1", ext, "check_codim1_condition"),
    ("ext.codim2", ext, "check_codim2_condition"),
    ("ext.decomposable", ext, "is_decomposable_double"),
    ("deriv.derivation_space", deriv, "derivation_space"),
    ("deriv.project_to_h1", deriv, "project_to_h1"),
    ("canon.normalize", canon, "proportional_normalize"),
    ("canon.similar", canon, "proportional_similar"),
)

# Spans reported with ``.calls`` and ``.s`` only: they call no other span.
LEAF_SPANS = ("classify.template_sample", "exactla.char_poly",
              "exactla.factor", "exactla.det", "exactla.rref", "cli.serialize")

SPAN_NAMES = (
    "classify.sweep_points", "classify.template_sample", "classify.conjugate",
    "classify.match",
    "classify.stage.sweep", "classify.stage.verify",
    "classify.stage.crosscheck", "classify.stage.distinctness",
    "classify.fingerprint",
    "exactla.eigen_structure", "exactla.char_poly", "exactla.factor",
    "exactla.det", "exactla.rref",
    "ext.codim1", "ext.codim2", "ext.decomposable",
    "deriv.derivation_space", "deriv.project_to_h1",
    "canon.normalize", "canon.similar",
    "cli.serialize",
)


def _wrap_field(tracer: Tracer, name: str, obj, attr: str) -> None:
    fn = getattr(obj, attr, None)
    if not callable(fn):
        raise MissingTarget(f"cannot trace missing {type(obj).__name__}.{attr}")
    object.__setattr__(obj, attr, tracer.wrap(name, fn))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of the ``liecodim`` package.

    The per-point matchers and template samplers are callables stored on
    the cached catalog entries, so those fields are wrapped in place.
    """
    wrap_functions(tracer, MODULES, FUNCTION_SPANS)
    for entry in classify.catalog().values():
        _wrap_field(tracer, "classify.match", entry, "ext1_classifier")
        templates = entry.ext1_templates
        if entry.supports_ext2():
            _wrap_field(tracer, "classify.match", entry, "ext2_classifier")
            templates += entry.ext2_templates
        for template in templates:
            _wrap_field(tracer, "classify.template_sample", template, "sample")
