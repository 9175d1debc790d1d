"""Synthetic-library catalog: calibrated stand-ins for the paper's packages.

Every library the 21 benchmark applications depend on (Table 1) is modelled
here.  :func:`standard_library` is a parametric builder that lays a library
out the same way real packages are shaped:

* a root module with **API attributes** (the names applications actually
  call), **hidden implementation attributes** (``_impl_*`` values reachable
  only through an import-time chain — invisible to the call graph, so DD
  must discover them), **bulk attributes** (the unused surface that
  debloating removes), submodule imports, and ``from … import`` re-exports;
* submodules with their own bodies and attribute surfaces.

The *kept fraction* parameters split each library's import-time/memory
budget between what survives typical trimming (root body, API, used
submodules) and what DD removes (bulk attributes, unused submodules) —
calibrated per-application in :mod:`repro.workloads.apps` so the paper's
Table 2 / Figure 8 improvement shapes emerge from real debloating runs.

Attribute counts of representative modules follow Table 3 (numpy 537,
torch 1414, transformers 3300, sympy 938, nltk 560, …).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.synthlib import (
    AttributeSpec,
    LibrarySpec,
    ModuleSpec,
    chain,
    deffn,
    extimport,
    func,
    klass,
    reexport,
    submodules,
    value,
)

__all__ = ["SubPlan", "standard_library", "LIBRARY_NAMES", "library_spec"]


@dataclass(frozen=True)
class SubPlan:
    """One submodule of a standard library.

    ``used`` submodules carry kept budget (the application needs them);
    unused ones carry removed budget and vanish when their import/
    re-export alias is debloated away.
    """

    name: str
    used: bool
    attrs: tuple[str, ...] = ()
    attr_count: int = 0  # pad with bulk attrs up to this component count
    via: str = "import"  # "import" -> from pkg import sub; "reexport" only
    reexport_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.via not in ("import", "reexport"):
            raise WorkloadError(f"bad submodule import mode: {self.via!r}")
        if self.via == "reexport" and not self.reexport_names:
            raise WorkloadError(f"submodule {self.name}: reexport mode needs names")
        unknown = set(self.reexport_names) - set(self.attrs)
        if unknown:
            raise WorkloadError(
                f"submodule {self.name}: re-exported names missing: {sorted(unknown)}"
            )


def _share(budget: float, weight: float, count: int) -> float:
    """Per-item share of a weighted budget slice (0 when count is 0)."""
    if count == 0:
        return 0.0
    return budget * weight / count


EXTERNAL_SERVICE_APIS = {
    # api functions whose calls reach remote services (Section 5.3):
    # the oracle compares these call logs for equivalence.
    "synth_boto3": {"client", "resource"},
    "synth_requests": {"get", "post"},
}


def standard_library(
    name: str,
    *,
    disk_size_mb: float,
    import_time_s: float,
    memory_mb: float,
    kept_time_frac: float,
    kept_mem_frac: float,
    root_attr_target: int,
    api_classes: tuple[str, ...] = (),
    api_funcs: tuple[str, ...] = (),
    api_values: tuple[str, ...] = (),
    class_methods: dict[str, tuple[str, ...]] | None = None,
    exec_costs: dict[str, float] | None = None,
    exec_memory: dict[str, float] | None = None,
    subs: tuple[SubPlan, ...] = (),
    hidden_deps: int = 4,
    runtime_attr: str = "runtime",
    wide_api: tuple[str, int] | None = None,
    external: tuple[AttributeSpec, ...] = (),
    extra_root_attrs: tuple[AttributeSpec, ...] = (),
    bulk_prefix: str = "op",
) -> LibrarySpec:
    """Build a calibrated synthetic library.

    Parameters mirror the catalog docstring; ``wide_api`` is a
    ``(name, dep_count)`` pair adding a ``def`` attribute whose body
    references the first *dep_count* bulk attributes — the mechanism behind
    wine keeping 504 of numpy's 537 attributes while dna-visualization
    keeps ~40.
    """
    if not 0.0 <= kept_time_frac <= 1.0 or not 0.0 <= kept_mem_frac <= 1.0:
        raise WorkloadError(f"{name}: kept fractions must be within [0, 1]")
    exec_costs = exec_costs or {}
    exec_memory = exec_memory or {}
    class_methods = class_methods or {}

    kept_time = import_time_s * kept_time_frac
    kept_mem = memory_mb * kept_mem_frac
    removed_time = import_time_s - kept_time
    removed_mem = memory_mb - kept_mem

    used_subs = [s for s in subs if s.used]
    unused_subs = [s for s in subs if not s.used]

    api_names = list(api_classes) + list(api_funcs) + list(api_values)
    hidden_names = [f"_impl_{i:03d}" for i in range(hidden_deps)]

    # Component budget: everything in the root except bulk.
    fixed_components = (
        len(api_names)
        + len(hidden_names)
        + (1 if hidden_names else 0)  # the runtime chain attr
        + (1 if wide_api else 0)
        + sum(1 if s.via == "import" else 0 for s in subs)
        + sum(len(s.reexport_names) for s in subs)
        + sum(len(e.names) for e in external)
        + len(extra_root_attrs)
    )
    bulk_count = root_attr_target - fixed_components
    if bulk_count < 0:
        raise WorkloadError(
            f"{name}: root_attr_target {root_attr_target} below fixed "
            f"component count {fixed_components}"
        )
    bulk_names = [f"{bulk_prefix}_{i:04d}" for i in range(bulk_count)]

    # -- kept budget distribution -------------------------------------------
    # root body 72%, API 8%, hidden chain 10%, used submodule bodies+attrs
    # 10%; empty categories fold into the root body.  The body carries most
    # of the kept budget because the body always survives — budget on API
    # attributes is "at risk" of removal whenever a handler ignores them.
    api_time = _share(kept_time, 0.08, len(api_names))
    api_mem = _share(kept_mem, 0.08, len(api_names))
    hidden_time = _share(kept_time, 0.10, len(hidden_names) + 1)
    hidden_mem = _share(kept_mem, 0.10, len(hidden_names) + 1)
    used_sub_time = _share(kept_time, 0.10, len(used_subs))
    used_sub_mem = _share(kept_mem, 0.10, len(used_subs))

    body_time = kept_time * 0.72
    body_mem = kept_mem * 0.72
    if not api_names:
        body_time += kept_time * 0.08
        body_mem += kept_mem * 0.08
    if not hidden_names:
        body_time += kept_time * 0.10
        body_mem += kept_mem * 0.10
    if not used_subs:
        body_time += kept_time * 0.10
        body_mem += kept_mem * 0.10

    # -- removed budget distribution ------------------------------------------
    # bulk 55%, unused submodule bodies 30%, used-submodule bulk padding 15%.
    bulk_time = _share(removed_time, 0.55, len(bulk_names))
    bulk_mem = _share(removed_mem, 0.55, len(bulk_names))
    unused_sub_time = _share(removed_time, 0.30, len(unused_subs))
    unused_sub_mem = _share(removed_mem, 0.30, len(unused_subs))
    sub_pad_counts = {
        s.name: max(s.attr_count - len(s.attrs), 0) for s in subs
    }
    total_pad = sum(sub_pad_counts.values())
    sub_pad_time = _share(removed_time, 0.15, total_pad)
    sub_pad_mem = _share(removed_mem, 0.15, total_pad)
    if not unused_subs:
        bulk_time += _share(removed_time, 0.30, len(bulk_names))
        bulk_mem += _share(removed_mem, 0.30, len(bulk_names))
    if not total_pad:
        bulk_time += _share(removed_time, 0.15, len(bulk_names))
        bulk_mem += _share(removed_mem, 0.15, len(bulk_names))

    # -- root module -------------------------------------------------------------
    attributes: list[AttributeSpec] = []
    for cls in api_classes:
        attributes.append(
            klass(
                cls,
                time_s=api_time,
                memory_mb=api_mem,
                call_time_s=exec_costs.get(cls, 0.0),
                methods=class_methods.get(cls, ()),
            )
        )
    external_apis = EXTERNAL_SERVICE_APIS.get(name, set())
    for fn in api_funcs:
        attributes.append(
            func(
                fn,
                time_s=api_time,
                memory_mb=api_mem,
                call_time_s=exec_costs.get(fn, 0.0),
                call_memory_mb=exec_memory.get(fn, 0.0),
                external=fn in external_apis,
            )
        )
    for val in api_values:
        attributes.append(value(val, time_s=api_time, memory_mb=api_mem))
    for hidden in hidden_names:
        attributes.append(value(hidden, time_s=hidden_time, memory_mb=hidden_mem))
    if hidden_names:
        attributes.append(
            chain(
                runtime_attr,
                tuple(hidden_names),
                time_s=hidden_time,
                memory_mb=hidden_mem,
            )
        )
    if wide_api is not None:
        wide_name, wide_count = wide_api
        if wide_count > len(bulk_names):
            raise WorkloadError(
                f"{name}: wide_api wants {wide_count} deps, "
                f"only {len(bulk_names)} bulk attributes exist"
            )
        attributes.append(
            deffn(
                wide_name,
                uses=tuple(bulk_names[:wide_count]),
                call_time_s=exec_costs.get(wide_name, 0.0),
            )
        )
    attributes.extend(extra_root_attrs)
    # Real packages import sibling submodules in one statement (``from pkg
    # import io, filters, color``); mixing used and unused names in a
    # single statement is exactly where attribute granularity beats the
    # statement-granularity baselines (Section 6.1, Table 2).
    imported_subs = [s.name for s in subs if s.via == "import"]
    if imported_subs:
        attributes.append(submodules(*imported_subs))
    for sub in used_subs:
        if sub.reexport_names:
            attributes.append(reexport(sub.name, *sub.reexport_names))
    attributes.extend(external)
    for bulk in bulk_names:
        attributes.append(value(bulk, time_s=bulk_time, memory_mb=bulk_mem))
    for sub in unused_subs:
        if sub.reexport_names:
            attributes.append(reexport(sub.name, *sub.reexport_names))

    modules = [
        ModuleSpec(
            name="",
            body_time_s=body_time,
            body_memory_mb=body_mem,
            attributes=tuple(attributes),
        )
    ]

    # -- submodules ---------------------------------------------------------------
    for sub in subs:
        sub_attrs: list[AttributeSpec] = []
        if sub.used:
            body_t, body_m = used_sub_time * 0.8, used_sub_mem * 0.8
            attr_t = _share(used_sub_time * 0.2, 1.0, len(sub.attrs))
            attr_m = _share(used_sub_mem * 0.2, 1.0, len(sub.attrs))
        else:
            body_t, body_m = unused_sub_time * 0.5, unused_sub_mem * 0.5
            attr_t = _share(unused_sub_time * 0.5, 1.0, len(sub.attrs))
            attr_m = _share(unused_sub_mem * 0.5, 1.0, len(sub.attrs))
        for attr in sub.attrs:
            # Python naming convention decides the attribute's nature:
            # Capitalised names are classes, lowercase names are functions.
            if attr[0].isupper():
                sub_attrs.append(
                    klass(
                        attr,
                        time_s=attr_t,
                        memory_mb=attr_m,
                        call_time_s=exec_costs.get(f"{sub.name}.{attr}", 0.0),
                        methods=class_methods.get(f"{sub.name}.{attr}", ()),
                    )
                )
            else:
                sub_attrs.append(
                    func(
                        attr,
                        time_s=attr_t,
                        memory_mb=attr_m,
                        call_time_s=exec_costs.get(f"{sub.name}.{attr}", 0.0),
                        call_memory_mb=exec_memory.get(f"{sub.name}.{attr}", 0.0),
                    )
                )
        for i in range(sub_pad_counts[sub.name]):
            sub_attrs.append(
                value(f"u_{i:04d}", time_s=sub_pad_time, memory_mb=sub_pad_mem)
            )
        modules.append(
            ModuleSpec(
                name=sub.name,
                body_time_s=body_t,
                body_memory_mb=body_m,
                attributes=tuple(sub_attrs),
            )
        )

    return LibrarySpec(
        name=name, modules=tuple(modules), disk_size_mb=disk_size_mb
    )


# ---------------------------------------------------------------------------
# Library builders.  Budgets (import_time_s / memory_mb / kept fractions) are
# per-application calibration knobs; the defaults are the values used by the
# app that "owns" the library in Table 1.  Representative-module attribute
# counts follow Table 3.
# ---------------------------------------------------------------------------


def numpy_spec(
    *,
    import_time_s: float = 0.15,
    memory_mb: float = 9.0,
    kept_time_frac: float = 0.55,
    kept_mem_frac: float = 0.6,
) -> LibrarySpec:
    """numpy: 537 root attributes; linalg/random used, fft unused.

    ``stats_suite`` is the wide API: calling it keeps ~470 bulk attributes
    alive (the wine application), while apps that ignore it let DD remove
    nearly everything (dna-visualization keeps ~40).
    """
    return standard_library(
        "synth_numpy",
        disk_size_mb=38.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=537,
        api_classes=("ndarray",),
        api_funcs=(
            "array",
            "zeros",
            "ones",
            "dot",
            "mean",
            "stack",
            "reshape",
            "arange",
            "argmax",
            "asarray",
        ),
        api_values=("float32", "uint8"),
        subs=(
            SubPlan("linalg", used=True, attrs=("solve", "norm")),
            SubPlan("random", used=True, attrs=("default_rng",)),
            SubPlan(
                "fft",
                used=False,
                attrs=("fftn", "ifftn"),
                via="reexport",
                reexport_names=("fftn",),
            ),
        ),
        hidden_deps=6,
        runtime_attr="errstate",
        wide_api=("stats_suite", 470),
        exec_costs={"stats_suite": 0.25},
        bulk_prefix="ufunc",
    )


def torch_spec(
    *,
    import_time_s: float = 5.9,
    memory_mb: float = 62.0,
    kept_time_frac: float = 0.08,
    kept_mem_frac: float = 0.72,
) -> LibrarySpec:
    """torch: 1414 root attributes (Table 3 resnet row keeps ~108)."""
    return standard_library(
        "synth_torch",
        disk_size_mb=620.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=1414,
        api_classes=("tensor", "device"),
        api_funcs=(
            "zeros",
            "from_numpy",
            "no_grad",
            "load",
            "sigmoid",
            "softmax",
            "cat",
        ),
        class_methods={"tensor": ("view", "unsqueeze", "numpy")},
        exec_costs={"load": 0.2, "nn.Sequential": 4.9},
        exec_memory={"load": 8.0},
        subs=(
            SubPlan(
                "nn",
                used=True,
                attrs=(
                    "Linear",
                    "Conv2d",
                    "ReLU",
                    "Sequential",
                    "BatchNorm2d",
                    "MaxPool2d",
                    "Flatten",
                ),
                attr_count=160,
            ),
            SubPlan("autograd", used=True, attrs=("grad",)),
            SubPlan(
                "optim",
                used=False,
                attrs=("SGD", "Adam", "RMSprop"),
                via="reexport",
                reexport_names=("SGD", "Adam"),
            ),
            SubPlan(
                "cuda",
                used=False,
                attrs=("is_available",),
                via="reexport",
                reexport_names=("is_available",),
            ),
            SubPlan(
                "jit",
                used=False,
                attrs=("script", "trace"),
                via="reexport",
                reexport_names=("script",),
            ),
            SubPlan(
                "distributed",
                used=False,
                attrs=("init_process_group",),
                via="reexport",
                reexport_names=("init_process_group",),
            ),
        ),
        hidden_deps=80,
        runtime_attr="backends",
        bulk_prefix="aten",
    )


def transformers_spec(
    *,
    import_time_s: float = 2.0,
    memory_mb: float = 90.0,
    kept_time_frac: float = 0.84,
    kept_mem_frac: float = 0.97,
) -> LibrarySpec:
    """transformers: 3300 root attributes, ~9 kept (Table 3)."""
    return standard_library(
        "synth_transformers",
        disk_size_mb=180.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=3300,
        api_classes=("AutoModel", "AutoTokenizer"),
        api_funcs=("pipeline",),
        class_methods={
            "AutoModel": ("from_pretrained",),
            "AutoTokenizer": ("from_pretrained", "encode"),
        },
        exec_costs={"AutoModel": 0.65, "AutoTokenizer": 0.1, "pipeline": 0.1},
        subs=(
            SubPlan("tokenization_utils", used=True, attrs=("PreTrainedTokenizer",)),
            SubPlan(
                "models",
                used=False,
                attrs=("BertModel", "GPT2Model"),
                via="reexport",
                reexport_names=("BertModel", "GPT2Model"),
            ),
            SubPlan(
                "pipelines",
                used=False,
                attrs=("TextClassificationPipeline",),
                via="reexport",
                reexport_names=("TextClassificationPipeline",),
            ),
        ),
        hidden_deps=2,
        runtime_attr="logging",
        bulk_prefix="model",
    )


def pil_spec(
    *,
    import_time_s: float = 0.25,
    memory_mb: float = 6.0,
    kept_time_frac: float = 0.75,
    kept_mem_frac: float = 0.8,
) -> LibrarySpec:
    """PIL/Pillow: the Image submodule carries the useful surface."""
    return standard_library(
        "synth_PIL",
        disk_size_mb=11.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=40,
        api_funcs=("open_image",),
        subs=(
            SubPlan("Image", used=True, attrs=("open", "new"), attr_count=24),
            SubPlan(
                "ImageFilter",
                used=False,
                attrs=("GaussianBlur",),
                via="reexport",
                reexport_names=("GaussianBlur",),
            ),
            SubPlan(
                "ImageDraw",
                used=False,
                attrs=("Draw",),
                via="reexport",
                reexport_names=("Draw",),
            ),
        ),
        class_methods={"Image.open": ("resize", "convert", "crop")},
        exec_costs={"Image.open": 0.25},
        hidden_deps=3,
        runtime_attr="plugins",
        bulk_prefix="codec",
    )


def boto3_spec(
    *,
    import_time_s: float = 0.18,
    memory_mb: float = 7.0,
    kept_time_frac: float = 0.95,
    kept_mem_frac: float = 0.96,
) -> LibrarySpec:
    """boto3: AWS SDK — Session/client used, service shims unused."""
    return standard_library(
        "synth_boto3",
        disk_size_mb=60.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=60,
        api_classes=("Session",),
        api_funcs=("client", "resource"),
        class_methods={"Session": ("client", "resource")},
        exec_costs={"client": 0.02},
        subs=(
            SubPlan("session", used=True, attrs=("Config",)),
            SubPlan(
                "dynamodb",
                used=False,
                attrs=("TableResource",),
                via="reexport",
                reexport_names=("TableResource",),
            ),
            SubPlan(
                "ec2",
                used=False,
                attrs=("InstanceResource",),
                via="reexport",
                reexport_names=("InstanceResource",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="DEFAULT_SESSION",
        bulk_prefix="svc",
    )


def wand_spec(
    *,
    import_time_s: float = 0.24,
    memory_mb: float = 13.0,
    kept_time_frac: float = 0.97,
    kept_mem_frac: float = 0.96,
) -> LibrarySpec:
    """wand: ImageMagick binding — wand.image has 91 attributes (Table 3)."""
    return standard_library(
        "synth_wand",
        disk_size_mb=42.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=20,
        api_funcs=("version",),
        subs=(
            SubPlan("image", used=True, attrs=("Image",), attr_count=91),
            SubPlan(
                "drawing",
                used=False,
                attrs=("Drawing",),
                via="reexport",
                reexport_names=("Drawing",),
            ),
        ),
        class_methods={"image.Image": ("resize", "save", "clone")},
        exec_costs={"image.Image": 0.9},
        hidden_deps=2,
        runtime_attr="api",
        bulk_prefix="magick",
    )


def lightgbm_spec(
    *,
    import_time_s: float = 0.42,
    memory_mb: float = 14.0,
    kept_time_frac: float = 0.42,
    kept_mem_frac: float = 0.62,
) -> LibrarySpec:
    """lightgbm: 45 root attributes, heavy unused sklearn/plotting shims."""
    return standard_library(
        "synth_lightgbm",
        disk_size_mb=60.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=45,
        api_classes=("Booster", "Dataset"),
        api_funcs=("train",),
        class_methods={"Booster": ("predict", "num_trees")},
        exec_costs={"train": 0.02},
        subs=(
            SubPlan(
                "sklearn",
                used=False,
                attrs=("LGBMClassifier", "LGBMRegressor"),
                via="reexport",
                reexport_names=("LGBMClassifier", "LGBMRegressor"),
            ),
            SubPlan(
                "plotting",
                used=False,
                attrs=("plot_importance",),
                via="reexport",
                reexport_names=("plot_importance",),
            ),
            SubPlan(
                "dask",
                used=False,
                attrs=("DaskLGBMClassifier",),
                via="reexport",
                reexport_names=("DaskLGBMClassifier",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="basic",
        bulk_prefix="gbm",
    )


def requests_spec(
    *,
    import_time_s: float = 0.10,
    memory_mb: float = 4.0,
    kept_time_frac: float = 0.75,
    kept_mem_frac: float = 0.98,
) -> LibrarySpec:
    """requests: HTTP client used for a couple of calls."""
    return standard_library(
        "synth_requests",
        disk_size_mb=3.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=40,
        api_classes=("Session",),
        api_funcs=("get", "post"),
        class_methods={"Session": ("get", "post", "close")},
        exec_costs={"get": 0.05},
        subs=(
            SubPlan(
                "adapters",
                used=False,
                attrs=("HTTPAdapter",),
                via="reexport",
                reexport_names=("HTTPAdapter",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="models",
        bulk_prefix="http",
    )


def lxml_spec(
    *,
    import_time_s: float = 0.14,
    memory_mb: float = 11.0,
    kept_time_frac: float = 0.42,
    kept_mem_frac: float = 0.99,
) -> LibrarySpec:
    """lxml: lxml.html (84 attributes) is the Table 3 representative.

    The near-1.0 kept memory fraction reproduces the paper's lxml anomaly:
    large import-time savings (-41.58%) with almost no memory change
    (-0.21%) — the removed code is slow to import but allocates nothing.
    """
    return standard_library(
        "synth_lxml",
        disk_size_mb=55.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=25,
        api_funcs=("parse",),
        subs=(
            SubPlan("etree", used=True, attrs=("fromstring", "tostring", "XPath")),
            SubPlan("html", used=True, attrs=("document_fromstring",), attr_count=84),
            SubPlan(
                "objectify",
                used=False,
                attrs=("ObjectifiedElement",),
                via="reexport",
                reexport_names=("ObjectifiedElement",),
            ),
            SubPlan(
                "builder",
                used=False,
                attrs=("ElementMaker",),
                via="reexport",
                reexport_names=("ElementMaker",),
            ),
        ),
        exec_costs={"html.document_fromstring": 0.2, "etree.XPath": 0.1},
        hidden_deps=3,
        runtime_attr="cssselect",
        bulk_prefix="xml",
    )


def joblib_spec(
    *,
    import_time_s: float = 0.12,
    memory_mb: float = 5.0,
    kept_time_frac: float = 0.72,
    kept_mem_frac: float = 0.7,
) -> LibrarySpec:
    """joblib: 50 root attributes (Table 3 scikit representative)."""
    return standard_library(
        "synth_joblib",
        disk_size_mb=2.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=50,
        api_classes=("Memory", "Parallel"),
        api_funcs=("dump", "load", "delayed"),
        subs=(
            SubPlan(
                "externals",
                used=False,
                attrs=("loky_backend",),
                via="reexport",
                reexport_names=("loky_backend",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="hashing",
        bulk_prefix="pool",
    )


def sklearn_spec(
    *,
    import_time_s: float = 0.18,
    memory_mb: float = 52.0,
    kept_time_frac: float = 0.85,
    kept_mem_frac: float = 0.92,
    with_joblib: bool = True,
) -> LibrarySpec:
    """scikit-learn: estimator submodules, depends on joblib."""
    external = (extimport("synth_joblib"),) if with_joblib else ()
    extra = (
        (
            deffn(
                "clone_estimator",
                uses=("synth_joblib.Memory",),
            ),
        )
        if with_joblib
        else ()
    )
    return standard_library(
        "synth_sklearn",
        disk_size_mb=110.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=120,
        api_funcs=("fetch_dataset",),
        subs=(
            SubPlan("ensemble", used=True, attrs=("RandomForestClassifier",)),
            SubPlan("linear_model", used=True, attrs=("LogisticRegression",)),
            SubPlan("preprocessing", used=True, attrs=("StandardScaler",)),
            SubPlan(
                "svm",
                used=False,
                attrs=("SVC", "SVR"),
                via="reexport",
                reexport_names=("SVC",),
            ),
            SubPlan(
                "cluster",
                used=False,
                attrs=("KMeans",),
                via="reexport",
                reexport_names=("KMeans",),
            ),
            SubPlan(
                "neighbors",
                used=False,
                attrs=("KNeighborsClassifier",),
                via="reexport",
                reexport_names=("KNeighborsClassifier",),
            ),
        ),
        class_methods={
            "ensemble.RandomForestClassifier": ("fit", "predict", "score"),
            "linear_model.LogisticRegression": ("fit", "predict"),
            "preprocessing.StandardScaler": ("fit_transform",),
        },
        exec_costs={"ensemble.RandomForestClassifier": 0.01},
        hidden_deps=5,
        runtime_attr="base",
        external=external,
        extra_root_attrs=extra,
        bulk_prefix="est",
    )


def skimage_spec(
    *,
    import_time_s: float = 1.87,
    memory_mb: float = 43.0,
    kept_time_frac: float = 0.57,
    kept_mem_frac: float = 0.58,
) -> LibrarySpec:
    """skimage: only 18 root attributes (Table 3) but very heavy submodules.

    The unused color/feature/measure submodules carry the bulk of the
    import-time and memory budget — removing their aliases produces the
    paper's headline -42% memory / -59% cost for this application.
    """
    return standard_library(
        "synth_skimage",
        disk_size_mb=155.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=18,
        api_funcs=("img_as_float",),
        subs=(
            SubPlan("io", used=True, attrs=("imread", "imsave")),
            SubPlan("filters", used=True, attrs=("gaussian", "sobel")),
            SubPlan("transform", used=True, attrs=("resize", "rotate")),
            SubPlan("color", used=False, attrs=("rgb2gray",)),
            SubPlan("feature", used=False, attrs=("canny",)),
            SubPlan("measure", used=False, attrs=("regionprops",)),
            SubPlan("segmentation", used=False, attrs=("slic",)),
        ),
        exec_costs={"filters.gaussian": 0.04, "transform.resize": 0.04},
        hidden_deps=2,
        runtime_attr="util",
        bulk_prefix="img",
    )


def tensorflow_spec(
    *,
    import_time_s: float = 4.38,
    memory_mb: float = 165.0,
    kept_time_frac: float = 0.85,
    kept_mem_frac: float = 0.93,
) -> LibrarySpec:
    """tensorflow: 355 root attributes (Table 3), keras used."""
    return standard_library(
        "synth_tensorflow",
        disk_size_mb=560.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=355,
        api_classes=("Variable",),
        api_funcs=("constant", "function", "convert_to_tensor"),
        class_methods={"Variable": ("assign", "numpy")},
        subs=(
            SubPlan("keras", used=True, attrs=("Model", "Input"), attr_count=40),
            SubPlan("nn", used=True, attrs=("relu", "softmax")),
            SubPlan(
                "signal",
                used=False,
                attrs=("stft",),
                via="reexport",
                reexport_names=("stft",),
            ),
            SubPlan(
                "image",
                used=False,
                attrs=("decode_jpeg",),
                via="reexport",
                reexport_names=("decode_jpeg",),
            ),
            SubPlan(
                "data",
                used=False,
                attrs=("Dataset",),
                via="reexport",
                reexport_names=("Dataset",),
            ),
            SubPlan(
                "lite",
                used=False,
                attrs=("TFLiteConverter",),
                via="reexport",
                reexport_names=("TFLiteConverter",),
            ),
        ),
        exec_costs={"keras.Model": 0.02},
        hidden_deps=20,
        runtime_attr="compat",
        bulk_prefix="tfop",
    )


def squiggle_spec(
    *,
    import_time_s: float = 0.06,
    memory_mb: float = 3.0,
    kept_time_frac: float = 0.8,
    kept_mem_frac: float = 0.8,
) -> LibrarySpec:
    """squiggle: DNA visualisation; transitively depends on numpy.

    The attribute-chain references into ``synth_numpy`` are what lets the
    whole-program call graph (and DD) debloat numpy for dna-visualization
    even though the handler never imports numpy directly (Table 3).
    """
    return standard_library(
        "synth_squiggle",
        disk_size_mb=1.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=25,
        api_funcs=("transform",),
        external=(extimport("synth_numpy"),),
        extra_root_attrs=(
            deffn(
                "visualize",
                uses=(
                    "synth_numpy.array",
                    "synth_numpy.arange",
                    "synth_numpy.stack",
                ),
                call_time_s=0.01,
            ),
        ),
        hidden_deps=3,
        runtime_attr="themes",
        bulk_prefix="viz",
    )


def ffmpeg_spec(
    *,
    import_time_s: float = 0.06,
    memory_mb: float = 6.0,
    kept_time_frac: float = 0.9,
    kept_mem_frac: float = 0.95,
) -> LibrarySpec:
    """ffmpeg-python: a thin wrapper around the ffmpeg executable.

    Import is nearly free and execution dominates (the 2.5 s transcode of
    Table 1), so debloating barely helps — the paper's negative result.
    """
    return standard_library(
        "synth_ffmpeg",
        disk_size_mb=1.5,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=46,
        api_funcs=("input", "output", "run", "probe"),
        exec_costs={"run": 2.45, "probe": 0.03},
        hidden_deps=2,
        runtime_attr="nodes",
        bulk_prefix="filter",
    )


def igraph_spec(
    *,
    import_time_s: float = 0.09,
    memory_mb: float = 8.0,
    kept_time_frac: float = 0.75,
    kept_mem_frac: float = 0.86,
) -> LibrarySpec:
    """igraph: 185 root attributes (Table 3)."""
    return standard_library(
        "synth_igraph",
        disk_size_mb=35.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=185,
        api_classes=("Graph",),
        api_funcs=("read",),
        class_methods={
            "Graph": ("add_vertices", "add_edges", "pagerank", "degree")
        },
        exec_costs={"read": 0.005},
        subs=(
            SubPlan(
                "drawing",
                used=False,
                attrs=("Plot",),
                via="reexport",
                reexport_names=("Plot",),
            ),
            SubPlan(
                "clustering",
                used=False,
                attrs=("VertexClustering",),
                via="reexport",
                reexport_names=("VertexClustering",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="layouts",
        bulk_prefix="graph",
    )


def markdown_spec(
    *,
    import_time_s: float = 0.04,
    memory_mb: float = 6.0,
    kept_time_frac: float = 0.78,
    kept_mem_frac: float = 0.9,
) -> LibrarySpec:
    """markdown: 28 root attributes (Table 3)."""
    return standard_library(
        "synth_markdown",
        disk_size_mb=1.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=28,
        api_classes=("Markdown",),
        api_funcs=("markdown",),
        class_methods={"Markdown": ("convert", "reset")},
        exec_costs={"markdown": 0.02},
        subs=(
            SubPlan(
                "extensions",
                used=False,
                attrs=("Extension",),
                via="reexport",
                reexport_names=("Extension",),
            ),
        ),
        hidden_deps=2,
        runtime_attr="serializers",
        bulk_prefix="md",
    )


def nltk_spec(
    *,
    import_time_s: float = 0.32,
    memory_mb: float = 18.0,
    kept_time_frac: float = 0.58,
    kept_mem_frac: float = 0.84,
) -> LibrarySpec:
    """nltk: 560 root attributes (Table 3 textblob representative)."""
    return standard_library(
        "synth_nltk",
        disk_size_mb=80.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=560,
        api_funcs=("word_tokenize", "pos_tag", "sent_tokenize"),
        exec_costs={"word_tokenize": 0.02, "pos_tag": 0.05},
        subs=(
            SubPlan("tokenize", used=True, attrs=("TreebankWordTokenizer",)),
            SubPlan("corpus", used=False, attrs=("wordnet", "stopwords")),
            SubPlan("stem", used=False, attrs=("PorterStemmer",)),
            SubPlan(
                "chunk",
                used=False,
                attrs=("RegexpParser",),
                via="reexport",
                reexport_names=("RegexpParser",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="grammar",
        bulk_prefix="corp",
    )


def textblob_spec(
    *,
    import_time_s: float = 0.10,
    memory_mb: float = 4.0,
    kept_time_frac: float = 0.75,
    kept_mem_frac: float = 0.8,
) -> LibrarySpec:
    """textblob: depends on nltk for tokenization/tagging."""
    return standard_library(
        "synth_textblob",
        disk_size_mb=6.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=40,
        api_classes=("TextBlob",),
        class_methods={"TextBlob": ("words", "sentiment", "tags", "translate")},
        external=(extimport("synth_nltk"),),
        extra_root_attrs=(
            deffn(
                "analyze",
                uses=("synth_nltk.word_tokenize", "synth_nltk.pos_tag"),
                call_time_s=0.3,
            ),
        ),
        hidden_deps=3,
        runtime_attr="base",
        bulk_prefix="blob",
    )


def chdb_spec(
    *,
    import_time_s: float = 1.01,
    memory_mb: float = 28.0,
    kept_time_frac: float = 0.68,
    kept_mem_frac: float = 0.9,
) -> LibrarySpec:
    """chdb: embedded OLAP engine, 32 root attributes (Table 3)."""
    return standard_library(
        "synth_chdb",
        disk_size_mb=290.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=32,
        api_funcs=("query", "connect"),
        exec_costs={"query": 0.08},
        subs=(
            SubPlan(
                "dataframe",
                used=False,
                attrs=("to_df",),
                via="reexport",
                reexport_names=("to_df",),
            ),
            SubPlan(
                "udf",
                used=False,
                attrs=("chdb_udf",),
                via="reexport",
                reexport_names=("chdb_udf",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="engine",
        bulk_prefix="olap",
    )


def reportlab_spec(
    *,
    import_time_s: float = 0.20,
    memory_mb: float = 9.0,
    kept_time_frac: float = 0.75,
    kept_mem_frac: float = 0.92,
) -> LibrarySpec:
    """reportlab: PDF generation, pdfgen used."""
    return standard_library(
        "synth_reportlab",
        disk_size_mb=20.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=50,
        api_funcs=("rl_config",),
        subs=(
            SubPlan("pdfgen", used=True, attrs=("Canvas",)),
            SubPlan(
                "graphics",
                used=False,
                attrs=("renderPM",),
                via="reexport",
                reexport_names=("renderPM",),
            ),
            SubPlan(
                "platypus",
                used=False,
                attrs=("SimpleDocTemplate",),
                via="reexport",
                reexport_names=("SimpleDocTemplate",),
            ),
        ),
        class_methods={"pdfgen.Canvas": ("drawString", "save", "showPage")},
        exec_costs={"pdfgen.Canvas": 0.6},
        hidden_deps=3,
        runtime_attr="fonts",
        bulk_prefix="pdf",
    )


def pptx_spec(
    *,
    import_time_s: float = 0.14,
    memory_mb: float = 6.0,
    kept_time_frac: float = 0.6,
    kept_mem_frac: float = 0.82,
) -> LibrarySpec:
    """python-pptx: 38 root attributes (Table 3 epub-pdf representative)."""
    return standard_library(
        "synth_pptx",
        disk_size_mb=10.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=38,
        api_classes=("Presentation",),
        class_methods={"Presentation": ("save", "slide_layouts")},
        exec_costs={"Presentation": 0.4},
        subs=(
            SubPlan(
                "chart",
                used=False,
                attrs=("ChartData",),
                via="reexport",
                reexport_names=("ChartData",),
            ),
            SubPlan(
                "table",
                used=False,
                attrs=("Table",),
                via="reexport",
                reexport_names=("Table",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="oxml",
        bulk_prefix="slide",
    )


def docx_spec(
    *,
    import_time_s: float = 0.10,
    memory_mb: float = 5.0,
    kept_time_frac: float = 0.68,
    kept_mem_frac: float = 0.86,
) -> LibrarySpec:
    """python-docx: Word document generation."""
    return standard_library(
        "synth_docx",
        disk_size_mb=8.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=30,
        api_classes=("Document",),
        class_methods={"Document": ("add_paragraph", "add_heading", "save")},
        exec_costs={"Document": 0.4},
        subs=(
            SubPlan(
                "image",
                used=False,
                attrs=("ImagePart",),
                via="reexport",
                reexport_names=("ImagePart",),
            ),
        ),
        hidden_deps=2,
        runtime_attr="oxml",
        bulk_prefix="doc",
    )


def sympy_spec(
    *,
    import_time_s: float = 0.56,
    memory_mb: float = 32.0,
    kept_time_frac: float = 0.48,
    kept_mem_frac: float = 0.78,
) -> LibrarySpec:
    """sympy: 938 root attributes (Table 3, 914 removed for jsym)."""
    return standard_library(
        "synth_sympy",
        disk_size_mb=70.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=938,
        api_classes=("Symbol",),
        api_funcs=("symbols", "integrate", "diff", "simplify", "expand", "sin", "cos"),
        exec_costs={"integrate": 0.2, "simplify": 0.08},
        subs=(
            SubPlan("core", used=True, attrs=("Expr", "Add", "Mul")),
            SubPlan("polys", used=False, attrs=("Poly",)),
            SubPlan("geometry", used=False, attrs=("Point2D",)),
            SubPlan(
                "physics",
                used=False,
                attrs=("Quantity",),
                via="reexport",
                reexport_names=("Quantity",),
            ),
        ),
        hidden_deps=6,
        runtime_attr="assumptions",
        bulk_prefix="sym",
    )


def pandas_spec(
    *,
    import_time_s: float = 0.52,
    memory_mb: float = 24.0,
    kept_time_frac: float = 0.68,
    kept_mem_frac: float = 0.85,
    with_numpy: bool = True,
) -> LibrarySpec:
    """pandas: 141 root attributes (Table 3), depends on numpy."""
    external = (extimport("synth_numpy"),) if with_numpy else ()
    extra = (
        (
            deffn(
                "to_numpy",
                uses=("synth_numpy.asarray", "synth_numpy.float32"),
            ),
        )
        if with_numpy
        else ()
    )
    return standard_library(
        "synth_pandas",
        disk_size_mb=65.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=141,
        api_classes=("DataFrame", "Series"),
        api_funcs=("read_csv", "concat", "merge"),
        class_methods={
            "DataFrame": ("mean", "groupby", "describe", "to_dict"),
            "Series": ("sum", "value_counts"),
        },
        exec_costs={"read_csv": 0.004},
        subs=(
            SubPlan("io", used=True, attrs=("read_parquet",)),
            SubPlan(
                "plotting",
                used=False,
                attrs=("scatter_matrix",),
                via="reexport",
                reexport_names=("scatter_matrix",),
            ),
            SubPlan(
                "tseries",
                used=False,
                attrs=("offsets",),
                via="reexport",
                reexport_names=("offsets",),
            ),
        ),
        hidden_deps=5,
        runtime_attr="options",
        external=external,
        extra_root_attrs=extra,
        bulk_prefix="frame",
    )


def qiskit_spec(
    *,
    import_time_s: float = 1.06,
    memory_mb: float = 120.0,
    kept_time_frac: float = 0.62,
    kept_mem_frac: float = 0.92,
) -> LibrarySpec:
    """qiskit: 49 root attributes (Table 3 qiskit-nature representative)."""
    return standard_library(
        "synth_qiskit",
        disk_size_mb=120.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=49,
        api_classes=("QuantumCircuit",),
        api_funcs=("transpile",),
        class_methods={"QuantumCircuit": ("h", "cx", "measure_all")},
        exec_costs={"transpile": 0.1},
        subs=(
            SubPlan(
                "visualization",
                used=False,
                attrs=("plot_histogram",),
                via="reexport",
                reexport_names=("plot_histogram",),
            ),
            SubPlan(
                "pulse",
                used=False,
                attrs=("Schedule",),
                via="reexport",
                reexport_names=("Schedule",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="providers",
        bulk_prefix="gate",
    )


def qiskit_nature_spec(
    *,
    import_time_s: float = 0.9,
    memory_mb: float = 110.0,
    kept_time_frac: float = 0.55,
    kept_mem_frac: float = 0.85,
) -> LibrarySpec:
    """qiskit-nature: electronic-structure workflows on top of qiskit."""
    return standard_library(
        "synth_qiskit_nature",
        disk_size_mb=160.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=44,
        api_classes=("ElectronicStructureProblem",),
        class_methods={"ElectronicStructureProblem": ("second_q_ops", "solve")},
        exec_costs={"ElectronicStructureProblem": 0.35},
        external=(extimport("synth_qiskit"),),
        extra_root_attrs=(
            deffn(
                "build_ansatz",
                uses=("synth_qiskit.QuantumCircuit", "synth_qiskit.transpile"),
                call_time_s=0.1,
            ),
        ),
        subs=(
            SubPlan("drivers", used=True, attrs=("PySCFDriver",)),
            SubPlan(
                "mappers",
                used=False,
                attrs=("JordanWignerMapper",),
                via="reexport",
                reexport_names=("JordanWignerMapper",),
            ),
        ),
        hidden_deps=3,
        runtime_attr="settings",
        bulk_prefix="orb",
    )


def shapely_spec(
    *,
    import_time_s: float = 0.08,
    memory_mb: float = 5.0,
    kept_time_frac: float = 0.72,
    kept_mem_frac: float = 0.82,
) -> LibrarySpec:
    """shapely: 176 root attributes (Table 3)."""
    return standard_library(
        "synth_shapely",
        disk_size_mb=18.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=176,
        api_classes=("Point", "Polygon", "LineString"),
        class_methods={
            "Point": ("buffer", "distance"),
            "Polygon": ("area", "intersection", "union"),
        },
        subs=(
            SubPlan("ops", used=True, attrs=("unary_union",)),
            SubPlan(
                "affinity",
                used=False,
                attrs=("rotate",),
                via="reexport",
                reexport_names=("rotate",),
            ),
            SubPlan(
                "strtree",
                used=False,
                attrs=("STRtree",),
                via="reexport",
                reexport_names=("STRtree",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="speedups",
        bulk_prefix="geom",
    )


def spacy_spec(
    *,
    import_time_s: float = 1.28,
    memory_mb: float = 40.0,
    kept_time_frac: float = 0.32,
    kept_mem_frac: float = 0.55,
) -> LibrarySpec:
    """spacy: 60 root attributes (Table 3).

    ``load`` charges 0.6 s / 40 MB at *call* time: the language-model load
    λ-trim cannot optimize (the paper's Figure 12 spacy observation).
    """
    return standard_library(
        "synth_spacy",
        disk_size_mb=180.0,
        import_time_s=import_time_s,
        memory_mb=memory_mb,
        kept_time_frac=kept_time_frac,
        kept_mem_frac=kept_mem_frac,
        root_attr_target=60,
        api_funcs=("load", "blank"),
        exec_costs={"load": 0.6, "tokens.Doc": 0.02},
        exec_memory={"load": 40.0},
        subs=(
            SubPlan("tokens", used=True, attrs=("Doc", "Span")),
            SubPlan(
                "lang",
                used=False,
                attrs=("English",),
                via="reexport",
                reexport_names=("English",),
            ),
            SubPlan(
                "pipeline",
                used=False,
                attrs=("EntityRecognizer",),
                via="reexport",
                reexport_names=("EntityRecognizer",),
            ),
            SubPlan(
                "matcher",
                used=False,
                attrs=("Matcher",),
                via="reexport",
                reexport_names=("Matcher",),
            ),
        ),
        hidden_deps=4,
        runtime_attr="registry",
        bulk_prefix="nlp",
    )


LIBRARY_NAMES: tuple[str, ...] = (
    "numpy",
    "torch",
    "transformers",
    "PIL",
    "boto3",
    "wand",
    "lightgbm",
    "requests",
    "lxml",
    "joblib",
    "sklearn",
    "skimage",
    "tensorflow",
    "squiggle",
    "ffmpeg",
    "igraph",
    "markdown",
    "nltk",
    "textblob",
    "chdb",
    "reportlab",
    "pptx",
    "docx",
    "sympy",
    "pandas",
    "qiskit",
    "qiskit_nature",
    "shapely",
    "spacy",
)

_BUILDERS = {
    "numpy": numpy_spec,
    "torch": torch_spec,
    "transformers": transformers_spec,
    "PIL": pil_spec,
    "boto3": boto3_spec,
    "wand": wand_spec,
    "lightgbm": lightgbm_spec,
    "requests": requests_spec,
    "lxml": lxml_spec,
    "joblib": joblib_spec,
    "sklearn": sklearn_spec,
    "skimage": skimage_spec,
    "tensorflow": tensorflow_spec,
    "squiggle": squiggle_spec,
    "ffmpeg": ffmpeg_spec,
    "igraph": igraph_spec,
    "markdown": markdown_spec,
    "nltk": nltk_spec,
    "textblob": textblob_spec,
    "chdb": chdb_spec,
    "reportlab": reportlab_spec,
    "pptx": pptx_spec,
    "docx": docx_spec,
    "sympy": sympy_spec,
    "pandas": pandas_spec,
    "qiskit": qiskit_spec,
    "qiskit_nature": qiskit_nature_spec,
    "shapely": shapely_spec,
    "spacy": spacy_spec,
}


def library_spec(name: str, **overrides) -> LibrarySpec:
    """Build the named library, optionally overriding calibration knobs."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown library {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    return builder(**overrides)
