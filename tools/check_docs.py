#!/usr/bin/env python3
"""Docs drift lint for the GRAFT repo.

Fails (exit 1) when the reference pages under docs/ fall behind the code:

  * every top-level subdirectory of src/ must be mentioned (as "src/<name>")
    in docs/architecture.md;
  * every Prometheus metric name the server exports (any "graft_..." name
    inside a string literal of METRIC_SOURCES: the declared counter tables
    of ServerStats and BlockCache::Snapshot, and the files that render the
    remaining gauges and summaries) must appear in docs/operations.md;
  * every command-line flag graft_server parses (arg == "--flag" in
    tools/graft_server.cc) must appear in docs/operations.md, and every
    row of that page's flag table ("| `--flag ...` |") must name a flag
    the binary parses;
  * likewise for the router: every "graft_..." metric name in
    ROUTER_METRIC_SOURCES (its counter tables and router_service.cc) must
    appear in docs/distributed.md, and its flag table must match the
    flags graft_router parses, both ways;
  * every counter name of the exec::ExecStats table (kExecCounters in
    src/exec/operators.h) must have a row ("| `name` |") in
    docs/operators.md;
  * every final operator class of src/exec/operators.cc (one deriving
    from DocOperator, directly or through a base template such as
    LeafScan) must have a row in docs/operators.md's streaming-operator
    table, and every row of that table must name such a class;
  * docs/index-format.md (the normative on-disk spec) must agree with
    src/index/index_format.h: every kFmt* constant's value, every
    FmtV5Section enum entry at its index, both struct sizes asserted by
    static_assert, and every on-disk struct field name;
  * every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md
    and docs/*.md must resolve to an existing file.

`--self-test` proves the lint actually bites: it re-runs every check on
deliberately broken inputs and fails if any breakage goes undetected.
CI runs both modes.
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METRIC_SOURCES = (
    "src/server/server_stats.h",
    "src/server/server_stats.cc",
    "src/server/search_service.cc",
    "src/index/block_cache.h",
)
FLAG_SOURCE = "tools/graft_server.cc"
ROUTER_METRIC_SOURCES = (
    "src/router/router_service.h",
    "src/router/router_service.cc",
    "src/router/scatter_gather.h",
    "src/router/shard_client.h",
)
EXEC_COUNTER_SOURCE = "src/exec/operators.h"
OPERATOR_SOURCE = "src/exec/operators.cc"
OPERATORS_DOC = "docs/operators.md"
ROUTER_FLAG_SOURCE = "tools/graft_router.cc"
LINKED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return f.read()


# ---- check 1: architecture page covers every src/ subdirectory -----------


def src_subdirs(repo=REPO):
    root = os.path.join(repo, "src")
    return sorted(
        name
        for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name))
    )


def check_architecture(arch_text, subdirs):
    errors = []
    for name in subdirs:
        if f"src/{name}" not in arch_text:
            errors.append(
                f"docs/architecture.md does not mention src/{name} — every "
                "src/ subsystem needs at least a pointer paragraph"
            )
    return errors


# ---- check 2: operations page lists every exported metric ----------------


def quoted_segments(source_text):
    # String literals only: a metric name in a comment ("graft_-prefixed")
    # or an identifier (graft_server) must not count as an exported metric.
    return re.findall(r'"([^"\\]*(?:\\.[^"\\]*)*)"', source_text)


def exported_metrics(source_texts):
    names = set()
    for text in source_texts:
        for segment in quoted_segments(text):
            names.update(re.findall(r"\bgraft_[a-z][a-z0-9_]*", segment))
    return sorted(names)


def check_metrics(ops_text, metric_names, page="docs/operations.md"):
    return [
        f"{page} does not document exported metric {name}"
        for name in metric_names
        if name not in ops_text
    ]


# ---- check 3: a binary's flag table lists exactly the flags it parses -----


def server_flags(flag_source_text):
    return sorted(set(re.findall(r'arg == "(--[a-z][a-z-]*)"', flag_source_text)))


def flag_rows(doc_text):
    """Flags named by the page's flag-table rows ("| `--flag ...` |")."""
    return re.findall(r"^\| `(--[a-z][a-z-]*)", doc_text, re.M)


def check_flags(ops_text, flags, page="docs/operations.md", binary="graft_server"):
    missing = [
        f"{page} does not document {binary} flag {flag}"
        for flag in flags
        if f"`{flag}" not in ops_text and f"| {flag}" not in ops_text
        and flag not in ops_text
    ]
    stale = [
        f"{page} documents {flag}, which {binary} does not parse"
        for flag in flag_rows(ops_text)
        if flag not in flags
    ]
    return missing + stale


# ---- check 3b: operators page has a row per ExecStats counter ------------


def exec_counters(source_text):
    # Rows of kExecCounters: {&ExecStats::member, "name", ...}.
    return re.findall(r'\{&ExecStats::\w+,\s*"(\w+)"', source_text)


def check_exec_counters(doc_text, names):
    return [
        f"{OPERATORS_DOC} has no counter row for ExecStats counter {name}"
        for name in names
        if not re.search(rf"^\| `{name}` \|", doc_text, re.MULTILINE)
    ]


# ---- check 3c: operators page has a row per streaming operator -----------

OPERATOR_TABLE_HEADING = "## Streaming operators"


def operator_classes(source_text):
    # Class heads: "class Name [final] : public Base[<...>] {". A class is an
    # operator when its base is DocOperator or another operator base.
    heads = re.findall(r"^class (\w+)( final)? : public (\w+)", source_text,
                       re.MULTILINE)
    operators = {"DocOperator"}
    grown = True
    while grown:
        grown = False
        for name, _, base in heads:
            if base in operators and name not in operators:
                operators.add(name)
                grown = True
    return sorted(name for name, final, _ in heads
                  if final and name in operators)


def operator_rows(doc_text):
    start = doc_text.find(OPERATOR_TABLE_HEADING)
    if start < 0:
        return []
    end = doc_text.find("\n## ", start + 1)
    section = doc_text[start:] if end < 0 else doc_text[start:end]
    return re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)


def check_operator_table(doc_text, classes):
    rows = operator_rows(doc_text)
    errors = [
        f"{OPERATORS_DOC} has no streaming-operator row for {name}"
        for name in classes
        if name not in rows
    ]
    errors += [
        f"{OPERATORS_DOC} streaming-operator row {name} names no operator "
        f"class in {OPERATOR_SOURCE}"
        for name in rows
        if name not in classes
    ]
    return errors


# ---- check 4: index-format spec mirrors index_format.h -------------------

FORMAT_HEADER = "src/index/index_format.h"
FORMAT_DOC = "docs/index-format.md"


def format_facts(header_text):
    """Extract the layout facts the spec page must quote verbatim."""
    facts = {
        # ('kFmtVersionV3', '3') ...
        "versions": re.findall(
            r"(kFmtVersionV\d)\s*=\s*'(\d)'", header_text
        ),
        # ('kFmtV5SectionCount', '7'), ('kFmtV5BlockSize', '128')
        "numeric": re.findall(
            r"(kFmtV5SectionCount|kFmtV5BlockSize)\s*=\s*(\d+)", header_text
        ),
        # ('BlockHeaderV5', '16'), ('TermMetaV5', '48')
        "sizes": re.findall(
            r"static_assert\(sizeof\((\w+)\)\s*==\s*(\d+)", header_text
        ),
        "sections": [],
        "fields": [],
    }
    enum = re.search(r"enum class FmtV5Section[^{]*\{(.*?)\}", header_text,
                     re.DOTALL)
    if enum:
        facts["sections"] = re.findall(r"(k\w+)\s*=\s*(\d+)", enum.group(1))
    for struct in re.finditer(r"struct (\w+V5)\s*\{(.*?)\};", header_text,
                              re.DOTALL):
        for field in re.findall(r"^\s*u?int\d+_t\s+(\w+)\s*;",
                                struct.group(2), re.MULTILINE):
            facts["fields"].append((struct.group(1), field))
    return facts


def check_format_spec(spec_text, facts):
    errors = []
    doc = FORMAT_DOC
    if "GRFTIDX" not in spec_text:
        errors.append(f"{doc} does not state the magic string GRFTIDX")
    for name, char in facts["versions"]:
        if f"`{name}` | `'{char}'`" not in spec_text:
            errors.append(
                f"{doc} does not list {name} = '{char}' in the version table"
            )
    for name, value in facts["numeric"]:
        if f"`{name}` | {value}" not in spec_text:
            errors.append(f"{doc} does not list {name} = {value}")
    for name, size in facts["sizes"]:
        if f"`{name}` | {size} bytes" not in spec_text:
            errors.append(
                f"{doc} does not state sizeof({name}) == {size} bytes"
            )
    for name, index in facts["sections"]:
        if f"| {index} | `{name}` |" not in spec_text:
            errors.append(
                f"{doc} does not document section {name} at index {index}"
            )
    for struct, field in facts["fields"]:
        if f"`{field}`" not in spec_text:
            errors.append(
                f"{doc} does not document {struct} field {field}"
            )
    return errors


# ---- check 5: relative markdown links resolve ----------------------------

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(doc_path, text, repo=REPO):
    errors = []
    base = os.path.dirname(os.path.join(repo, doc_path))
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not os.path.exists(os.path.normpath(os.path.join(base, path))):
            errors.append(f"{doc_path}: broken relative link -> {target}")
    return errors


# ---- driver --------------------------------------------------------------


def docs_to_link_check(repo=REPO):
    docs = [p for p in LINKED_DOCS if os.path.exists(os.path.join(repo, p))]
    docs_dir = os.path.join(repo, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            docs.append(os.path.join("docs", name))
    return docs


def run_checks():
    arch = read("docs/architecture.md")
    ops = read("docs/operations.md")
    dist = read("docs/distributed.md")
    errors = []
    errors += check_architecture(arch, src_subdirs())
    errors += check_metrics(ops, exported_metrics(read(p) for p in METRIC_SOURCES))
    errors += check_flags(ops, server_flags(read(FLAG_SOURCE)))
    errors += check_metrics(
        dist,
        exported_metrics(read(p) for p in ROUTER_METRIC_SOURCES),
        page="docs/distributed.md",
    )
    errors += check_flags(
        dist,
        server_flags(read(ROUTER_FLAG_SOURCE)),
        page="docs/distributed.md",
        binary="graft_router",
    )
    errors += check_exec_counters(
        read(OPERATORS_DOC), exec_counters(read(EXEC_COUNTER_SOURCE))
    )
    errors += check_operator_table(
        read(OPERATORS_DOC), operator_classes(read(OPERATOR_SOURCE))
    )
    errors += check_format_spec(read(FORMAT_DOC), format_facts(read(FORMAT_HEADER)))
    for doc in docs_to_link_check():
        errors += check_links(doc, read(doc))
    return errors


def self_test():
    """Every check must flag a deliberately broken input (negative test)."""
    failures = []

    arch = read("docs/architecture.md")
    mutated = arch.replace("src/exec", "src/(redacted)")
    if not check_architecture(mutated, src_subdirs()):
        failures.append("architecture check missed a removed src/exec mention")
    if check_architecture(arch, src_subdirs()):
        failures.append("architecture check fails on the real docs")

    ops = read("docs/operations.md")
    mutated = ops.replace("graft_requests_total", "graft_requests_renamed")
    metrics = exported_metrics(read(p) for p in METRIC_SOURCES)
    if "graft_requests_total" not in metrics:
        failures.append("metric extraction lost graft_requests_total")
    if not check_metrics(mutated, metrics):
        failures.append("metrics check missed a removed metric row")
    if check_metrics(ops, metrics):
        failures.append("metrics check fails on the real docs")

    flags = server_flags(read(FLAG_SOURCE))
    if "--slow-query-ms" not in flags:
        failures.append("flag extraction lost --slow-query-ms")
    mutated = ops.replace("--slow-query-ms", "--renamed-flag")
    if not check_flags(mutated, flags):
        failures.append("flags check missed a removed flag row")
    if check_flags(ops, flags):
        failures.append("flags check fails on the real docs")
    if "--mmap-index" not in flag_rows(ops):
        failures.append("flag-row extraction lost --mmap-index")
    stale_row = "| `--retired-flag N` | 0 = off | parsed by nothing |\n"
    mutated = ops.replace("| `--mmap-index`", stale_row + "| `--mmap-index`", 1)
    if not check_flags(mutated, flags):
        failures.append("flags check missed a stale flag row")

    dist = read("docs/distributed.md")
    router_metrics = exported_metrics(read(p) for p in ROUTER_METRIC_SOURCES)
    if "graft_router_gathers_total" not in router_metrics:
        failures.append("metric extraction lost graft_router_gathers_total")
    mutated = dist.replace(
        "graft_router_gathers_total", "graft_router_gathers_renamed"
    )
    if not check_metrics(mutated, router_metrics, page="docs/distributed.md"):
        failures.append("router metrics check missed a removed metric row")
    if check_metrics(dist, router_metrics, page="docs/distributed.md"):
        failures.append("router metrics check fails on the real docs")

    router_flags = server_flags(read(ROUTER_FLAG_SOURCE))
    if "--hedge-ms" not in router_flags:
        failures.append("flag extraction lost --hedge-ms")
    mutated = dist.replace("--hedge-ms", "--renamed-flag")
    if not check_flags(
        mutated, router_flags, page="docs/distributed.md", binary="graft_router"
    ):
        failures.append("router flags check missed a removed flag row")
    mutated = dist.replace(
        "| `--hedge-ms", "| `--retired-flag N` | 0 | parsed by nothing |\n| `--hedge-ms", 1
    )
    if not check_flags(
        mutated, router_flags, page="docs/distributed.md", binary="graft_router"
    ):
        failures.append("router flags check missed a stale flag row")
    if check_flags(
        dist, router_flags, page="docs/distributed.md", binary="graft_router"
    ):
        failures.append("router flags check fails on the real docs")

    operators = read(OPERATORS_DOC)
    counters = exec_counters(read(EXEC_COUNTER_SOURCE))
    if "topk_ceiling_probes" not in counters:
        failures.append("counter extraction lost topk_ceiling_probes")
    mutated = "\n".join(
        line
        for line in operators.splitlines()
        if not line.startswith("| `topk_ceiling_probes` |")
    )
    if not check_exec_counters(mutated, counters):
        failures.append("exec counter check missed a removed counter row")
    if check_exec_counters(operators, counters):
        failures.append("exec counter check fails on the real docs")

    classes = operator_classes(read(OPERATOR_SOURCE))
    for name in ("GroupOp", "ScanOp", "FusedScoredCountScan"):
        if name not in classes:
            failures.append(f"operator class extraction lost {name}")
    mutated = "\n".join(
        line for line in operators.splitlines()
        if not line.startswith("| `GroupOp` |")
    )
    if not check_operator_table(mutated, classes):
        failures.append("operator table check missed a removed operator row")
    mutated = operators.replace(
        "| `ScanOp` |", "| `RetiredOp` | gone | — | — |\n| `ScanOp` |", 1
    )
    if not check_operator_table(mutated, classes):
        failures.append("operator table check missed a stale operator row")
    if check_operator_table(operators, classes):
        failures.append("operator table check fails on the real docs")

    spec = read(FORMAT_DOC)
    facts = format_facts(read(FORMAT_HEADER))
    if ("kFmtV5BlockSize", "128") not in facts["numeric"]:
        failures.append("format fact extraction lost kFmtV5BlockSize = 128")
    if ("BlockHeaderV5", "16") not in facts["sizes"]:
        failures.append("format fact extraction lost sizeof(BlockHeaderV5)")
    if ("kPayload", "4") not in facts["sections"]:
        failures.append("format fact extraction lost section kPayload = 4")
    if ("BlockHeaderV5", "last_doc") not in facts["fields"]:
        failures.append("format fact extraction lost BlockHeaderV5.last_doc")
    mutated = spec.replace("`kFmtV5BlockSize` | 128", "`kFmtV5BlockSize` | 256")
    if not check_format_spec(mutated, facts):
        failures.append("format check missed a wrong kFmtV5BlockSize value")
    mutated = spec.replace("| 4 | `kPayload` |", "| 4 | `kRenamed` |")
    if not check_format_spec(mutated, facts):
        failures.append("format check missed a renamed section row")
    mutated = spec.replace("`last_doc`", "`renamed_doc`")
    if not check_format_spec(mutated, facts):
        failures.append("format check missed a removed struct field")
    if check_format_spec(spec, facts):
        failures.append("format check fails on the real docs")

    broken = "see [the docs](docs/definitely-not-a-real-file.md) for more"
    if not check_links("README.md", broken):
        failures.append("link check missed a broken relative link")
    ok = "see [the index](src/index/index_io.h) and [web](https://x.test/)"
    if check_links("README.md", ok):
        failures.append("link check flags a valid link")

    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify each check detects deliberately broken input",
    )
    args = parser.parse_args()

    problems = self_test() if args.self_test else run_checks()
    label = "self-test" if args.self_test else "docs lint"
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        print(f"check_docs: {label} FAILED ({len(problems)} problems)",
              file=sys.stderr)
        return 1
    print(f"check_docs: {label} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
