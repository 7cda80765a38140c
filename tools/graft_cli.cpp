// graft_cli — index text files and search them from the command line.
//
//   graft_cli index <index-file> <text-file>...
//     build an index and write it in format v5 (delta-encoded bit-packed
//     posting blocks that graft_server can mmap with --mmap-index)
//   graft_cli search <index-file> <scheme> <query>   ranked search
//   graft_cli explain <index-file> <scheme> <query>  show the plan
//     explain prints the optimized plan, the full rewrite-attempt table
//     (every catalog optimization with its gate verdict), and the
//     cost-model estimate; with --analyze it also EXECUTES the query and
//     prints the measured per-operator counters plus the span trace
//     (EXPLAIN ANALYZE).
//   graft_cli schemes                                 list schemes
//   graft_cli rules [--ids] [scheme]                  rewrite-rule catalog
//     prints the declarative catalog (pattern, transform, required SA
//     properties); --ids emits one rule id per line for scripting, and a
//     scheme name adds that scheme's per-rule gate verdict.
//
// search accepts two parallel-execution flags (before or after the
// positional arguments):
//   --segments N   partition the index into N segments at load time and
//                  execute the query segment-parallel (default 1)
//   --threads N    total worker threads for segment execution; 0 means
//                  hardware concurrency, 1 means serial (default 0)
//
// Each input file becomes one document; tokenization is sentence- and
// paragraph-aware, so SAMESENTENCE / SAMEPARAGRAPH predicates work.
//
// Example:
//   ./graft_cli index /tmp/docs.idx docs/*.txt
//   ./graft_cli search /tmp/docs.idx MeanSum \
//       '(windows emulator)WINDOW[50] (foss | "free software")'

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/request.h"
#include "core/rewrite_rules.h"
#include "index/index_io.h"
#include "sa/property_checker.h"
#include "text/structure.h"

namespace {

int Fail(const graft::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdIndex(int argc, char** argv) {
  if (argc < 2 || argv[0][0] == '-') {
    std::fprintf(stderr, "usage: graft_cli index <index-file> <file>...\n");
    return 2;
  }
  const std::string output = argv[0];
  graft::index::IndexBuilder builder;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const graft::text::StructuredDocument doc =
        graft::text::TokenizeStructured(text.str());
    std::vector<std::string_view> tokens;
    std::vector<graft::Offset> offsets;
    tokens.reserve(doc.tokens.size());
    offsets.reserve(doc.tokens.size());
    for (const graft::text::PositionedToken& token : doc.tokens) {
      tokens.emplace_back(token.text);
      offsets.push_back(token.offset);
    }
    const graft::DocId id = builder.AddDocumentPositioned(tokens, offsets);
    std::printf("doc %u <- %s (%zu tokens, %u sentences, %u paragraphs)\n",
                id, argv[i], tokens.size(), doc.sentence_count,
                doc.paragraph_count);
  }
  graft::index::InvertedIndex index = builder.Build();
  const graft::Status saved = graft::index::SaveIndex(index, output);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %llu docs, %zu terms, %llu words\n",
              output.c_str(),
              static_cast<unsigned long long>(index.doc_count()),
              index.term_count(),
              static_cast<unsigned long long>(index.total_words()));
  return 0;
}

int CmdSearchOrExplain(bool explain, int argc, char** argv) {
  size_t segments = 1;
  size_t threads = 0;
  bool analyze = false;
  std::vector<const char*> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--segments" || arg == "--threads") && i + 1 < argc) {
      auto value = graft::core::ParseCount(argv[++i], arg);
      if (!value.ok()) return Fail(value.status());
      (arg == "--segments" ? segments : threads) = *value;
    } else if (arg == "--analyze" && explain) {
      analyze = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 3) {
    std::fprintf(stderr,
                 "usage: graft_cli %s [--segments N] [--threads N]%s "
                 "<index-file> <scheme> <query>\n",
                 explain ? "explain" : "search",
                 explain ? " [--analyze]" : "");
    return 2;
  }
  const char* index_file = positional[0];

  // The engine pool plus the calling thread together provide `threads`
  // workers (0 → hardware concurrency).
  const size_t pool_threads =
      threads == 0 ? 0 : std::max<size_t>(1, threads - 1);
  auto bundle =
      graft::core::LoadEngineBundle(index_file, segments, pool_threads);
  if (!bundle.ok()) return Fail(bundle.status());

  graft::core::SearchRequestParams params;
  params.scheme = positional[1];
  params.query = positional[2];
  params.num_threads = threads;

  if (explain) {
    // --analyze executes the query with the user's partitioning so the
    // measured counters describe the real segmented run.
    graft::core::SearchOptions explain_options;
    explain_options.num_threads = threads;
    auto plan = analyze
                    ? bundle->engine->ExplainAnalyze(
                          params.query, params.scheme, explain_options)
                    : bundle->engine->Explain(params.query, params.scheme);
    if (!plan.ok()) return Fail(plan.status());
    std::fputs(plan->c_str(), stdout);
    return 0;
  }
  auto resolved = graft::core::ResolveRequest(*bundle->engine, params);
  if (!resolved.ok()) return Fail(resolved.status());
  auto result = bundle->engine->SearchQuery(resolved->query, *resolved->scheme,
                                            resolved->options);
  if (!result.ok()) return Fail(result.status());
  std::printf("%zu documents  [%s]  (%zu segment%s)\n",
              result->results.size(), result->applied_optimizations.c_str(),
              result->segments_searched,
              result->segments_searched == 1 ? "" : "s");
  for (const graft::ma::ScoredDoc& hit : result->results) {
    std::printf("  doc %-8u %.6f\n", hit.doc, hit.score);
  }
  return 0;
}

// `rules` prints the declarative rewrite catalog; `rules --ids` prints one
// id per line for scripting (CI iterates these as GRAFT_FUZZ_RULE values).
// With a scheme name, each rule additionally shows that scheme's gate
// verdict.
int CmdRules(int argc, char** argv) {
  bool ids_only = false;
  const char* scheme_name = nullptr;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ids") {
      ids_only = true;
    } else if (scheme_name == nullptr) {
      scheme_name = argv[i];
    } else {
      std::fprintf(stderr, "usage: graft_cli rules [--ids] [scheme]\n");
      return 2;
    }
  }
  const graft::core::RewriteRuleRegistry& registry =
      graft::core::RewriteRuleRegistry::Global();
  if (ids_only) {
    for (const graft::core::RewriteRule& rule : registry.All()) {
      std::printf("%s\n", rule.id.c_str());
    }
    return 0;
  }
  const graft::sa::ScoringScheme* scheme = nullptr;
  if (scheme_name != nullptr) {
    scheme = graft::sa::SchemeRegistry::Global().Lookup(scheme_name);
    if (scheme == nullptr) {
      std::fprintf(stderr, "unknown scheme: %s\n", scheme_name);
      return 1;
    }
  }
  std::printf("rewrite-rule catalog (%zu rules):\n", registry.All().size());
  for (const graft::core::RewriteRule& rule : registry.All()) {
    std::printf("  %-22s [%s]\n", rule.id.c_str(),
                rule.stage == graft::core::RuleStage::kPlan ? "plan"
                                                            : "execution");
    std::printf("    matches:    %s\n", rule.pattern.c_str());
    std::printf("    rewrite to: %s\n", rule.transform.c_str());
    if (rule.requirements.empty()) {
      std::printf("    requires:   nothing (always score-consistent)\n");
    } else {
      std::string requires_line;
      for (const graft::core::PropertyRequirement& req : rule.requirements) {
        if (!requires_line.empty()) requires_line += ", ";
        requires_line += req.name;
      }
      std::printf("    requires:   %s\n", requires_line.c_str());
    }
    if (scheme != nullptr) {
      const graft::core::GateDecision decision =
          rule.Explain(scheme->properties());
      std::printf("    %s:  %s: %s\n", std::string(scheme->name()).c_str(),
                  decision.valid ? "licensed" : "blocked",
                  decision.reason.c_str());
    }
  }
  return 0;
}

int CmdSchemes() {
  std::printf("registered scoring schemes:\n");
  for (const graft::sa::ScoringScheme* scheme :
       graft::sa::SchemeRegistry::Global().All()) {
    const graft::sa::SchemeProperties& props = scheme->properties();
    std::printf("  %-16s %s%s%s\n", std::string(scheme->name()).c_str(),
                graft::sa::DirectionName(props.direction).c_str(),
                props.positional ? ", positional" : "",
                props.constant ? ", constant" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  graft::Status structural =
      graft::text::RegisterStructuralPredicates();
  (void)structural;
  // Honor GRAFT_FAILPOINTS ("name=action[@N];...") so chaos scripts can
  // inject faults into any CLI run. A bad spec fails fast — including in
  // failpoints-off builds, where every named site is NotFound rather than
  // silently inert.
  {
    const graft::Status activated =
        graft::common::FailpointRegistry::Global().ActivateFromEnv();
    if (!activated.ok()) {
      std::fprintf(stderr, "error: %s\n", activated.ToString().c_str());
      return 2;
    }
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: graft_cli <index|search|explain|schemes|rules> "
                 "...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "index") return CmdIndex(argc - 2, argv + 2);
  if (command == "search") return CmdSearchOrExplain(false, argc - 2, argv + 2);
  if (command == "explain") return CmdSearchOrExplain(true, argc - 2, argv + 2);
  if (command == "schemes") return CmdSchemes();
  if (command == "rules") return CmdRules(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
