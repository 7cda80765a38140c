// Differential score-consistency fuzzer (the ISSUE's headline satellite):
// random well-formed MCalc ASTs — HAS atoms under AND/OR/NOT (NOT is the
// paper's EMPTY predicate) and DISTANCE/PROXIMITY/WINDOW/ORDER constraints —
// executed four ways through the PUBLIC engine API and compared for
// bit-identical results across every registered scheme:
//
//   base      unoptimized monolithic (every OptimizerOptions toggle off,
//             rank processing off, top_k = 0);
//   opt       optimized monolithic — same options as production defaults;
//   seg       optimized segmented (3 segments, thread-pool parallel);
//   topk      top-k runs (rank processing allowed, so MaxScore fires
//             where its gate admits the query, PRUNING with block-max
//             ceilings unless the run disables it), checked against the
//             base ranking's prefix;
//   v5        the same corpus saved as a v5 (bit-packed, mmap-loaded)
//             index: full ranking and top-k through the packed decode
//             path, bit-identical to the materialized index's results —
//             the codec sits inside the score path, so this is the
//             configuration that catches a compression bug;
//   v5 seg    the v5 index fanned out over 3 segments: packed blocks
//             decoded concurrently by pool threads, full ranking and
//             top-k, bit-identical to the materialized index's results;
//   overlay   the top-k runs above (monolithic, segmented, v5 packed, v5
//             packed segmented) under a per-request statistics overlay,
//             checked against the monolithic full ranking under the same
//             overlay: a collection-level one of the router's kind, far
//             from the index's own figures (pruning must still fire where
//             licensed), and one that also overrides doc lengths (pruning
//             must stand down);
//   topk-unpruned  the same top-k with allow_block_max_pruning = false:
//             the pruned and unpruned top-k must both be bit-identical to
//             the full ranking's prefix. The fuzzer additionally asserts
//             the activation invariant: used_block_max_pruning is true
//             exactly when the extended gate licenses pruning (α bounded,
//             ⊕ idempotent, ⊘/⊚ monotone, diagonal, pure keyword query),
//             and NEVER for a blocked scheme — whose EXPLAIN rewrite table
//             must carry the blocking verdict.
//
// Every configuration also checks operator honesty between EXPLAIN and
// execution: ExplainQuery, given the run's options, names the top-k path
// the run reports in SearchResult::used_rank_processing and
// used_block_max_pruning.
//
// Comparison contract, verified per execution pair:
//
//   * base vs opt — score-consistent within the same 1e-7 relative bound
//     random_query_fuzz_test.cc uses against the reference oracle. NOT
//     bit-identical by design: the ⊗-scaling rewrites (eager aggregation,
//     eager/pre-counting) replace "⊕ of n equal α terms" with "α ⊗ n",
//     which is algebraically equal but reassociates floating point
//     (e.g. x+x+x+x+x vs x*5), and the drift compounds multiplicatively
//     for the product-flavoured schemes.
//   * opt vs seg, opt vs topk — BIT-IDENTICAL (==). Execution strategy
//     (segment fan-out + merge, MaxScore top-k) must never change a
//     single bit: segments score against global statistics and MaxScore
//     evaluates the same score expression. This is the
//     strong claim engine.h makes and the one regressions actually hit.
//
// On failure the fuzzer greedily minimizes the AST (subtree promotion,
// child dropping, NOT/constraint stripping) while the disagreement
// reproduces, then prints the minimized formula plus the EXPLAIN-style
// rendering (plan + full rewrite-attempt table) of both plans.
//
// 10 shards x 50 queries = 500 ASTs by default. Environment overrides:
//   GRAFT_FUZZ_SEED   base seed (default 8312011); CI's nightly-style job
//                     passes a random one and logs it for replay.
//   GRAFT_FUZZ_ITERS  queries per shard (default 50).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/optimization_gate.h"
#include "core/optimizer.h"
#include "core/request.h"
#include "core/rewrite_rules.h"
#include "exec/maxscore_topk.h"
#include "index/index_io.h"
#include "index/segmented_index.h"
#include "ma/plan.h"
#include "router/scatter_gather.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"

namespace graft::core {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// Single-rule mode: GRAFT_FUZZ_RULE=<rule id> restricts the optimized and
// segmented configurations to exactly that catalog rule (every other
// toggle off, with the rule's structural prerequisites). CI iterates the
// registry through this knob so a regression names the rule that caused
// it. An unknown id aborts loudly rather than silently fuzzing nothing.
const RewriteRule* FuzzRuleFilter() {
  static const RewriteRule* rule = [] {
    const char* name = std::getenv("GRAFT_FUZZ_RULE");
    if (name == nullptr || *name == '\0') {
      return static_cast<const RewriteRule*>(nullptr);
    }
    const RewriteRule* found = RewriteRuleRegistry::Global().Lookup(name);
    if (found == nullptr) {
      std::fprintf(stderr,
                   "[fuzz] GRAFT_FUZZ_RULE=%s does not name a catalog rule; "
                   "valid ids:\n",
                   name);
      for (const RewriteRule& r : RewriteRuleRegistry::Global().All()) {
        std::fprintf(stderr, "  %s\n", r.id.c_str());
      }
      std::abort();
    }
    std::fprintf(stderr, "[fuzz] single-rule mode: %s\n", found->id.c_str());
    return found;
  }();
  return rule;
}

// Optimizer toggles for the filtered rule: plan-stage rules run alone (plus
// prerequisites); execution-stage rules (rank join/union, block-max) have
// no plan toggle, so the plan side goes all-off and the rule is exercised
// through the top-k configurations' allow flags below.
OptimizerOptions FilteredOptimizer(const RewriteRule& rule) {
  const RewriteRuleRegistry& registry = RewriteRuleRegistry::Global();
  return rule.stage == RuleStage::kPlan ? registry.OnlyRuleOptions(rule)
                                        : registry.AllRulesOff();
}

// The fuzz corpus as raw token vectors: the monolithic index and the
// 3-shard router topology below must index the SAME documents.
const std::vector<std::vector<std::string>>& FuzzDocs() {
  static const std::vector<std::vector<std::string>>& docs = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(350, /*seed=*/97);
    for (auto& bundle : config.bundles) {
      bundle.doc_fraction = std::min(1.0, bundle.doc_fraction * 60);
    }
    auto* out = new std::vector<std::vector<std::string>>();
    text::CorpusGenerator generator(config);
    generator.Generate(
        [out](uint64_t, const std::vector<std::string_view>& tokens) {
          out->emplace_back(tokens.begin(), tokens.end());
        });
    return out;
  }();
  return docs;
}

const index::InvertedIndex& FuzzIndex() {
  static const index::InvertedIndex& index = *[] {
    index::IndexBuilder builder;
    for (const auto& doc : FuzzDocs()) builder.AddDocumentStrings(doc);
    return new index::InvertedIndex(builder.Build());
  }();
  return index;
}

const index::SegmentedIndex& FuzzSegments() {
  static const index::SegmentedIndex& segmented = *[] {
    auto built = index::SegmentedIndex::BuildFromMonolithic(FuzzIndex(), 3);
    if (!built.ok()) std::abort();
    return new index::SegmentedIndex(std::move(*built));
  }();
  return segmented;
}

const Engine& MonoEngine() {
  static const Engine engine(&FuzzIndex());
  return engine;
}

// The SAME fuzz corpus through a v5 save + mmap load: postings stay
// bit-packed on disk and decode through the block cache. Every score must
// be bit-identical to the materialized index's — the v5 codec is inside
// the score path, so this is where a codec bug would surface.
const index::InvertedIndex& PackedFuzzIndex() {
  static const index::InvertedIndex& index = *[] {
    const std::string path = ::testing::TempDir() + "/graft_fuzz_v5_" +
                             std::to_string(::getpid()) + ".idx";
    if (!index::SaveIndexV5(FuzzIndex(), path).ok()) std::abort();
    auto loaded = index::LoadIndexMapped(path);
    if (!loaded.ok()) std::abort();
    auto* out = new index::InvertedIndex(std::move(*loaded));
    if (!out->is_packed()) std::abort();
    return out;
  }();
  return index;
}

const Engine& PackedEngine() {
  static const Engine engine(&PackedFuzzIndex());
  return engine;
}

const Engine& SegmentedEngine() {
  static const Engine engine(&FuzzIndex(), &FuzzSegments(),
                             /*pool_threads=*/2);
  return engine;
}

// The packed index fanned out over 3 doc ranges: pool threads decode the
// same mapped blocks concurrently through the shared block cache.
const Engine& PackedSegmentedEngine() {
  static const Engine engine = [] {
    auto ranges =
        index::SegmentedIndex::BuildFromMonolithic(PackedFuzzIndex(), 3);
    if (!ranges.ok()) std::abort();
    return Engine(&PackedFuzzIndex(), &*ranges, /*pool_threads=*/2);
  }();
  return engine;
}

// ---- Sixth configuration: the distributed router --------------------------
//
// Three in-process shard servers over a contiguous split of the SAME fuzz
// corpus, fronted by a ScatterGather. The distributed analogue of the
// opt-vs-seg claim: the two-phase stats exchange pins whole-corpus
// statistics, so per-document scores are bit-identical across processes
// and the k-way merge must reproduce the single-process top-k exactly.
struct RouterTopology {
  std::vector<EngineBundle> bundles;
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::unique_ptr<router::ScatterGather> gather;
};

RouterTopology& FuzzRouter() {
  static RouterTopology& topology = *[] {
    auto* t = new RouterTopology();
    const auto& docs = FuzzDocs();
    constexpr size_t kShards = 3;
    const size_t chunk = (docs.size() + kShards - 1) / kShards;
    for (size_t shard = 0; shard < kShards; ++shard) {
      index::IndexBuilder builder;
      const size_t begin = shard * chunk;
      const size_t end = std::min(docs.size(), begin + chunk);
      for (size_t i = begin; i < end; ++i) {
        builder.AddDocumentStrings(docs[i]);
      }
      auto bundle = MakeEngineBundle(builder.Build(), /*segments=*/1,
                                     /*pool_threads=*/0);
      if (!bundle.ok()) std::abort();
      t->bundles.push_back(std::move(bundle).value());
    }
    server::ServiceOptions options;
    options.default_deadline_ms = 120000;
    options.max_deadline_ms = 120000;
    std::vector<std::vector<uint16_t>> ports;
    for (auto& bundle : t->bundles) {
      t->services.push_back(std::make_unique<server::SearchService>(
          bundle.engine.get(), options));
      if (!t->services.back()->Start().ok()) std::abort();
      ports.push_back({t->services.back()->port()});
    }
    router::ScatterGatherOptions gopts;
    gopts.client.max_attempts = 2;
    gopts.client.backoff_base_ms = 1;
    gopts.client.backoff_max_ms = 4;
    gopts.client.io_timeout_ms = 120000;
    t->gather = std::make_unique<router::ScatterGather>(std::move(ports),
                                                        gopts);
    return t;
  }();
  return topology;
}

// Vocabulary pool mixing frequent, mid, rare, and absent words.
const char* kWords[] = {"free",    "software", "windows",  "service",
                        "line",    "county",   "image",    "species",
                        "fishing", "obama",    "emulator", "foss",
                        "the",     "of",       "city",     "neverseen"};

// ---- Statistics overlays ---------------------------------------------
//
// The router's pinned statistics reach every shard as a per-request
// overlay of collection-level figures (N, total words, per-term df/cf).
// The fuzz overlay sets them far from the index's own — N tripled, every
// vocabulary df cut to a quarter — so a ceiling or score that silently
// read the index's figures instead would drift visibly. The per-document
// overlay adds doc-length overrides on top, which must keep every top-k
// run off the pruned operator.
const index::StatsOverlay& FuzzCollectionOverlay() {
  static const index::StatsOverlay& overlay = *[] {
    const index::InvertedIndex& index = FuzzIndex();
    auto* o = new index::StatsOverlay();
    o->SetCollectionSize(index.doc_count() * 3);
    o->SetTotalWords(index.total_words() * 2);
    for (const char* word : kWords) {
      const TermId term = index.LookupTerm(word);
      if (term == kInvalidTerm) continue;
      o->SetDocFreq(word, index.DocFreq(term) / 4 + 1);
      o->SetCollectionFreq(word, index.CollectionFreq(term) * 2);
    }
    return o;
  }();
  return overlay;
}

const index::StatsOverlay& FuzzDocOverlay() {
  static const index::StatsOverlay& overlay = *[] {
    auto* o = new index::StatsOverlay(FuzzCollectionOverlay());
    for (DocId doc = 5; doc < FuzzIndex().doc_count(); doc += 31) {
      o->SetDocLength(doc, 1 + doc % 13);
    }
    return o;
  }();
  return overlay;
}

class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  mcalc::Query Generate() {
    mcalc::Query query;
    query.root = GenNode(&query, /*depth=*/0, /*allow_not=*/true);
    return query;
  }

 private:
  // "the"/"of" are stopword-tier in the wiki-like corpus: hundreds of
  // positions per matching document. Binding two such variables in one
  // query makes the *unoptimized* reference plan enumerate the cross
  // product of their position lists — O(tf^2) tuples per document, which
  // is gigabytes of bindings and a timed-out shard without covering
  // anything the single-stopword case doesn't. Cap them at one per query.
  static bool IsStopword(const char* word) {
    return std::strcmp(word, "the") == 0 || std::strcmp(word, "of") == 0;
  }

  mcalc::NodePtr GenKeyword(mcalc::Query* query) {
    const char* word = kWords[rng_.NextBounded(std::size(kWords))];
    while (stopwords_used_ > 0 && IsStopword(word)) {
      word = kWords[rng_.NextBounded(std::size(kWords))];
    }
    if (IsStopword(word)) ++stopwords_used_;
    const mcalc::VarId var =
        static_cast<mcalc::VarId>(query->variables.size());
    query->variables.push_back(mcalc::Variable{var, word});
    return mcalc::MakeKeyword(word, var);
  }

  mcalc::NodePtr GenNode(mcalc::Query* query, int depth, bool allow_not) {
    const uint64_t kind = depth >= 3 ? 0 : rng_.NextBounded(10);
    if (kind < 3 || query->variables.size() >= 8) {
      return GenKeyword(query);
    }
    if (kind < 6) {  // conjunction, possibly with a negated child (EMPTY)
      std::vector<mcalc::NodePtr> kids;
      const uint64_t n = 2 + rng_.NextBounded(2);
      for (uint64_t i = 0; i < n; ++i) {
        kids.push_back(GenNode(query, depth + 1, /*allow_not=*/false));
      }
      if (allow_not && rng_.NextBool(0.3)) {
        kids.push_back(mcalc::MakeNot(GenKeyword(query)));
      }
      return mcalc::MakeAnd(std::move(kids));
    }
    if (kind < 8) {  // disjunction
      std::vector<mcalc::NodePtr> kids;
      const uint64_t n = 2 + rng_.NextBounded(3);
      for (uint64_t i = 0; i < n; ++i) {
        kids.push_back(GenNode(query, depth + 1, /*allow_not=*/false));
      }
      return mcalc::MakeOr(std::move(kids));
    }
    // Predicate group over a fresh conjunction of keywords.
    std::vector<mcalc::NodePtr> kids;
    std::vector<mcalc::VarId> vars;
    const uint64_t n = 2 + rng_.NextBounded(2);
    for (uint64_t i = 0; i < n; ++i) {
      mcalc::NodePtr kw = GenKeyword(query);
      vars.push_back(kw->var);
      kids.push_back(std::move(kw));
    }
    mcalc::PredicateCall call;
    switch (rng_.NextBounded(4)) {
      case 0:
        call = {"WINDOW", vars, {static_cast<int64_t>(
                                    5 + rng_.NextBounded(60))}};
        break;
      case 1:
        call = {"PROXIMITY", vars, {static_cast<int64_t>(
                                       3 + rng_.NextBounded(20))}};
        break;
      case 2:
        call = {"ORDER", vars, {}};
        break;
      default:
        call = {"DISTANCE",
                {vars[0], vars[1]},
                {static_cast<int64_t>(1 + rng_.NextBounded(3))}};
        break;
    }
    return mcalc::MakeConstrained(mcalc::MakeAnd(std::move(kids)),
                                  {std::move(call)});
  }

  Rng rng_;
  int stopwords_used_ = 0;
};

// ---- The four execution configurations -----------------------------------

SearchOptions BaseOptions() {
  SearchOptions options;
  options.optimizer = OptimizerOptions{
      .push_selections = false,
      .reorder_joins = false,
      .cost_based_join_order = false,
      .eliminate_sort = false,
      .eager_aggregation = false,
      .eager_counting = false,
      .pre_counting = false,
      .alternate_elimination = false,
  };
  options.allow_rank_processing = false;
  options.use_segmented = false;
  return options;
}

SearchOptions OptimizedOptions() {
  SearchOptions options;
  if (const RewriteRule* rule = FuzzRuleFilter()) {
    options.optimizer = FilteredOptimizer(*rule);
  }
  options.allow_rank_processing = false;
  options.use_segmented = false;
  return options;
}

SearchOptions SegmentedOptions() {
  SearchOptions options;
  if (const RewriteRule* rule = FuzzRuleFilter()) {
    options.optimizer = FilteredOptimizer(*rule);
  }
  options.allow_rank_processing = false;
  return options;  // use_segmented = true (default)
}

SearchOptions TopKOptions(size_t k, bool use_segmented) {
  SearchOptions options;
  options.top_k = k;
  options.use_segmented = use_segmented;
  if (const RewriteRule* rule = FuzzRuleFilter()) {
    options.optimizer = FilteredOptimizer(*rule);
    // Execution-stage rules are what the rank path implements; plan-stage
    // filters keep rank processing off so the top-k pair still exercises
    // just the one rule under test.
    options.allow_rank_processing = rule->stage == RuleStage::kExecution;
    options.allow_block_max_pruning =
        rule->opt == Optimization::kBlockMaxPruning;
  }
  return options;  // allow_rank_processing = true (default)
}

std::map<DocId, double> ToMap(const std::vector<ma::ScoredDoc>& results) {
  std::map<DocId, double> map;
  for (const ma::ScoredDoc& r : results) map[r.doc] = r.score;
  return map;
}

bool ScoresAgree(double got, double want, bool exact) {
  if (exact) return got == want;  // bit-identical
  // Same bound random_query_fuzz_test.cc uses against the reference
  // oracle: reassociation drift compounds multiplicatively for the
  // product-flavoured schemes (AnyProd, EventModel), so a pure
  // relative-ulp bound is too tight on small scores.
  return std::fabs(got - want) <= 1e-7 * std::max(1.0, std::fabs(want));
}

// Compares a full (top_k = 0) run against the reference map: identical doc
// set, scores per the pair's contract. Empty string = consistent.
std::string DiffFull(const std::map<DocId, double>& want,
                     const std::vector<ma::ScoredDoc>& got,
                     const char* label, bool exact) {
  const std::map<DocId, double> actual = ToMap(got);
  if (actual.size() != want.size()) {
    return std::string(label) + ": " + std::to_string(actual.size()) +
           " docs vs expected " + std::to_string(want.size());
  }
  for (const auto& [doc, score] : want) {
    const auto it = actual.find(doc);
    if (it == actual.end()) {
      return std::string(label) + ": doc " + std::to_string(doc) +
             " missing";
    }
    if (!ScoresAgree(it->second, score, exact)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: doc %u score %.17g vs expected %.17g%s", label, doc,
                    it->second, score, exact ? " (bit-identical required)" : "");
      return buf;
    }
  }
  return "";
}

// Compares a top-k run against the full optimized ranking: right count,
// each returned doc scored bit-identically, and the score sequence equal
// to the k best scores (ties may permute doc order at equal score).
std::string DiffTopK(const std::vector<ma::ScoredDoc>& full_ranked,
                     const std::map<DocId, double>& full,
                     const std::vector<ma::ScoredDoc>& got, size_t k,
                     const char* label) {
  const size_t want = std::min(k, full_ranked.size());
  if (got.size() != want) {
    return std::string(label) + ": " + std::to_string(got.size()) +
           " results vs expected " + std::to_string(want);
  }
  for (size_t i = 0; i < want; ++i) {
    if (got[i].score != full_ranked[i].score) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: rank %zu score %.17g vs full ranking %.17g", label,
                    i, got[i].score, full_ranked[i].score);
      return buf;
    }
    const auto it = full.find(got[i].doc);
    if (it == full.end()) {
      return std::string(label) + ": rank " + std::to_string(i) + " doc " +
             std::to_string(got[i].doc) + " not in full result set";
    }
    if (it->second != got[i].score) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: doc %u score %.17g vs full ranking %.17g", label,
                    got[i].doc, got[i].score, it->second);
      return buf;
    }
  }
  return "";
}

// The top-k path Explain's "top-k strategy" line names: "block-max" or
// "term-bound" MaxScore, "" for full ranking + truncate and when the line
// is absent (top_k == 0).
std::string ExplainedPath(const std::string& explain) {
  const size_t at = explain.find("top-k strategy (k=");
  if (at == std::string::npos) return "";
  const size_t begin = explain.find("): ", at) + 3;
  const std::string line =
      explain.substr(begin, explain.find('\n', begin) - begin);
  const std::pair<const char*, const char*> kLabels[] = {
      {"block-max pruned top-k", "block-max"},
      {"term-bound top-k;", "term-bound"},
      {"full ranking + truncate", ""},
  };
  for (const auto& [prefix, op] : kLabels) {
    if (line.rfind(prefix, 0) == 0) return op;
  }
  return "<unrecognized: " + line + ">";
}

// The same label for the path a run reports.
std::string RunPath(const SearchResult& run) {
  if (!run.used_rank_processing) return "";
  return run.used_block_max_pruning ? "block-max" : "term-bound";
}

// Operator honesty between EXPLAIN and execution: Explain, given the same
// options as a run, must name the path that run reports.
std::string DiffExplainedOperator(const Engine& engine,
                                  const mcalc::Query& query,
                                  const sa::ScoringScheme& scheme,
                                  const SearchOptions& options,
                                  const SearchResult& run,
                                  const std::string& label) {
  auto explain = engine.ExplainQuery(query, scheme, options);
  if (!explain.ok()) {
    return label + ": explain failed: " + explain.status().ToString();
  }
  const std::string named = ExplainedPath(*explain);
  if (named != RunPath(run)) {
    return label + ": Explain names top-k path '" + named +
           "' but the run reports '" + RunPath(run) + "'";
  }
  return "";
}

// Overlay configurations: under each fuzz overlay the monolithic full
// ranking is the reference, and the top-k runs — monolithic, segmented,
// v5 packed, v5 packed segmented — must equal its prefix bit-identically.
// The pruned operator fires exactly when MaxScore's gate, given the
// overlay, licenses it: always for a licensed query under the collection
// overlay, never under the per-document one.
std::string CheckOverlays(const mcalc::Query& query,
                          const sa::ScoringScheme& scheme) {
  constexpr size_t kTopK = 10;
  const std::pair<const char*, const index::StatsOverlay*> overlays[] = {
      {"collection overlay", &FuzzCollectionOverlay()},
      {"per-document overlay", &FuzzDocOverlay()},
  };
  for (const auto& [name, overlay] : overlays) {
    const std::string label = name;
    SearchOptions full_opts = OptimizedOptions();
    full_opts.stats_overlay = overlay;
    auto full = MonoEngine().SearchQuery(query, scheme, full_opts);
    if (!full.ok()) {
      return label + " full ranking failed: " + full.status().ToString();
    }
    const std::map<DocId, double> full_map = ToMap(full->results);

    SearchOptions mono_opts = TopKOptions(kTopK, false);
    mono_opts.stats_overlay = overlay;
    SearchOptions seg_opts = TopKOptions(kTopK, true);
    seg_opts.stats_overlay = overlay;
    const bool expect_prune =
        mono_opts.allow_rank_processing &&
        mono_opts.allow_block_max_pruning &&
        exec::MaxScoreTopK::Supports(query, scheme, overlay);
    const struct {
      const char* config;
      const Engine& engine;
      const SearchOptions& options;
    } runs[] = {
        {"top-k", MonoEngine(), mono_opts},
        {"segmented top-k", SegmentedEngine(), seg_opts},
        {"v5 packed top-k", PackedEngine(), mono_opts},
        {"v5 packed segmented top-k", PackedSegmentedEngine(), seg_opts},
    };
    for (const auto& run : runs) {
      const std::string config = label + " " + run.config;
      auto topk = run.engine.SearchQuery(query, scheme, run.options);
      if (!topk.ok()) {
        return config + " failed: " + topk.status().ToString();
      }
      if (std::string diff = DiffTopK(full->results, full_map, topk->results,
                                      kTopK, config.c_str());
          !diff.empty()) {
        return diff;
      }
      if (topk->used_block_max_pruning != expect_prune) {
        return config + ": used_block_max_pruning=" +
               (topk->used_block_max_pruning ? "true" : "false") +
               " but gate says " + (expect_prune ? "licensed" : "blocked");
      }
      if (overlay->overrides_documents() && topk->used_block_max_pruning) {
        return config + ": pruned under per-document statistics";
      }
      if (std::string diff = DiffExplainedOperator(
              run.engine, query, scheme, run.options, *topk, config);
          !diff.empty()) {
        return diff;
      }
    }
  }
  return "";
}

// Runs one query under one scheme through all four configurations.
// Returns "" when every pair agrees, else a description of the first
// disagreement.
std::string CheckQuery(const mcalc::Query& query,
                       const sa::ScoringScheme& scheme) {
  auto base = MonoEngine().SearchQuery(query, scheme, BaseOptions());
  if (!base.ok()) {
    // Degenerate queries (e.g. nothing scorable once Φ is derived) must be
    // rejected by EVERY configuration — a config that accepts what base
    // rejects is itself an inconsistency. The minimizer relies on this:
    // shrinking into a rejected query reads as consistent, so it cannot
    // trade a score mismatch for an unrelated engine error.
    auto opt = MonoEngine().SearchQuery(query, scheme, OptimizedOptions());
    if (opt.ok()) {
      return "base rejected (" + base.status().ToString() +
             ") but optimized succeeded";
    }
    auto seg =
        SegmentedEngine().SearchQuery(query, scheme, SegmentedOptions());
    if (seg.ok()) {
      return "base rejected (" + base.status().ToString() +
             ") but segmented succeeded";
    }
    return "";
  }
  const std::map<DocId, double> base_map = ToMap(base->results);

  auto opt = MonoEngine().SearchQuery(query, scheme, OptimizedOptions());
  if (!opt.ok()) return "optimized failed: " + opt.status().ToString();
  // Algebraic rewrites may reassociate ⊕ (see the header comment), so this
  // pair gets the relative bound; everything below is bit-identical.
  if (std::string diff =
          DiffFull(base_map, opt->results, "optimized", /*exact=*/false);
      !diff.empty()) {
    return diff;
  }
  const std::map<DocId, double> opt_map = ToMap(opt->results);

  auto seg = SegmentedEngine().SearchQuery(query, scheme, SegmentedOptions());
  if (!seg.ok()) return "segmented failed: " + seg.status().ToString();
  if (std::string diff =
          DiffFull(opt_map, seg->results, "segmented", /*exact=*/true);
      !diff.empty()) {
    return diff;
  }

  // v5 configuration: the same optimized plan over the mmap-packed index.
  // Compression must be invisible in the scores — bit-identical, same as
  // the segmented claim.
  auto packed = PackedEngine().SearchQuery(query, scheme, OptimizedOptions());
  if (!packed.ok()) return "v5 packed failed: " + packed.status().ToString();
  if (std::string diff =
          DiffFull(opt_map, packed->results, "v5 packed", /*exact=*/true);
      !diff.empty()) {
    return diff;
  }

  auto packed_seg =
      PackedSegmentedEngine().SearchQuery(query, scheme, SegmentedOptions());
  if (!packed_seg.ok()) {
    return "v5 packed segmented failed: " + packed_seg.status().ToString();
  }
  if (std::string diff = DiffFull(opt_map, packed_seg->results,
                                  "v5 packed segmented", /*exact=*/true);
      !diff.empty()) {
    return diff;
  }

  constexpr size_t kTopK = 10;
  auto topk = MonoEngine().SearchQuery(query, scheme,
                                       TopKOptions(kTopK, false));
  if (!topk.ok()) return "top-k failed: " + topk.status().ToString();
  if (std::string diff =
          DiffTopK(opt->results, opt_map, topk->results, kTopK, "top-k");
      !diff.empty()) {
    return diff;
  }

  auto topk_seg = SegmentedEngine().SearchQuery(query, scheme,
                                                TopKOptions(kTopK, true));
  if (!topk_seg.ok()) {
    return "segmented top-k failed: " + topk_seg.status().ToString();
  }
  if (std::string diff = DiffTopK(opt->results, opt_map, topk_seg->results,
                                  kTopK, "segmented top-k");
      !diff.empty()) {
    return diff;
  }

  // v5 top-k: rank processing AND block-max pruning run directly against
  // packed blocks (pruning aligns on v5 block headers). Same bit-identical
  // prefix contract as every other top-k configuration.
  auto packed_topk = PackedEngine().SearchQuery(query, scheme,
                                                TopKOptions(kTopK, false));
  if (!packed_topk.ok()) {
    return "v5 packed top-k failed: " + packed_topk.status().ToString();
  }
  if (std::string diff = DiffTopK(opt->results, opt_map,
                                  packed_topk->results, kTopK,
                                  "v5 packed top-k");
      !diff.empty()) {
    return diff;
  }

  auto packed_seg_topk = PackedSegmentedEngine().SearchQuery(
      query, scheme, TopKOptions(kTopK, true));
  if (!packed_seg_topk.ok()) {
    return "v5 packed segmented top-k failed: " +
           packed_seg_topk.status().ToString();
  }
  if (std::string diff = DiffTopK(opt->results, opt_map,
                                  packed_seg_topk->results, kTopK,
                                  "v5 packed segmented top-k");
      !diff.empty()) {
    return diff;
  }

  // Fifth configuration: top-k with block-max pruning disabled. Must be
  // bit-identical to the full ranking's prefix too (so pruned == unpruned).
  SearchOptions unpruned_opts = TopKOptions(kTopK, false);
  unpruned_opts.allow_block_max_pruning = false;
  auto unpruned = MonoEngine().SearchQuery(query, scheme, unpruned_opts);
  if (!unpruned.ok()) {
    return "unpruned top-k failed: " + unpruned.status().ToString();
  }
  if (std::string diff = DiffTopK(opt->results, opt_map, unpruned->results,
                                  kTopK, "unpruned top-k");
      !diff.empty()) {
    return diff;
  }
  if (unpruned->used_block_max_pruning) {
    return "unpruned top-k run reports used_block_max_pruning";
  }

  // Every configuration's EXPLAIN names the top-k operator it ran.
  const struct {
    const char* label;
    const Engine& engine;
    SearchOptions options;
    const SearchResult& run;
  } explained[] = {
      {"base", MonoEngine(), BaseOptions(), *base},
      {"optimized", MonoEngine(), OptimizedOptions(), *opt},
      {"segmented", SegmentedEngine(), SegmentedOptions(), *seg},
      {"v5 packed", PackedEngine(), OptimizedOptions(), *packed},
      {"top-k", MonoEngine(), TopKOptions(kTopK, false), *topk},
      {"segmented top-k", SegmentedEngine(), TopKOptions(kTopK, true),
       *topk_seg},
      {"v5 packed top-k", PackedEngine(), TopKOptions(kTopK, false),
       *packed_topk},
      {"v5 packed segmented", PackedSegmentedEngine(), SegmentedOptions(),
       *packed_seg},
      {"v5 packed segmented top-k", PackedSegmentedEngine(),
       TopKOptions(kTopK, true), *packed_seg_topk},
      {"unpruned top-k", MonoEngine(), unpruned_opts, *unpruned},
  };
  for (const auto& config : explained) {
    if (std::string diff =
            DiffExplainedOperator(config.engine, query, scheme, config.options,
                                  config.run, config.label);
        !diff.empty()) {
      return diff;
    }
  }

  // Activation invariant: the pruned operator fires exactly when the
  // extended gate licenses it — provably never for a blocked scheme. Under
  // a GRAFT_FUZZ_RULE filter the top-k options may disable rank processing
  // or pruning outright, so the expectation honors those flags too.
  const SearchOptions topk_mono_opts = TopKOptions(kTopK, false);
  const bool expect_prune =
      topk_mono_opts.allow_rank_processing &&
      topk_mono_opts.allow_block_max_pruning &&
      exec::MaxScoreTopK::Supports(query, scheme, /*overlay=*/nullptr);
  for (const auto& [label, run] :
       {std::pair<const char*, const SearchResult*>{"top-k", &*topk},
        {"segmented top-k", &*topk_seg}}) {
    if (run->used_block_max_pruning != expect_prune) {
      return std::string(label) + ": used_block_max_pruning=" +
             (run->used_block_max_pruning ? "true" : "false") +
             " but gate says " + (expect_prune ? "licensed" : "blocked");
    }
    if (!expect_prune && (run->exec_stats.topk_blocks_skipped != 0 ||
                          run->exec_stats.topk_ceiling_probes != 0)) {
      return std::string(label) +
             ": pruning counters nonzero on a non-pruned run";
    }
    if (run->used_rank_processing && !expect_prune) {
      // The rank path must log WHY pruning stood down.
      bool verdict_logged = false;
      for (const RewriteAttempt& attempt : run->rewrite_attempts) {
        if (attempt.opt == Optimization::kBlockMaxPruning) {
          verdict_logged = !attempt.fired && !attempt.verdict.empty();
        }
      }
      if (!verdict_logged) {
        return std::string(label) +
               ": no block-max gate verdict in the rewrite table";
      }
    }
  }
  if (!scheme.properties().bounded &&
      (topk->used_block_max_pruning || topk_seg->used_block_max_pruning)) {
    return "pruning activated for a scheme whose α is not bounded";
  }

  return CheckOverlays(query, scheme);
}

// Renders a generated AST in the Section-8 surface syntax that
// /search?q= accepts (parser.h grammar). NOT guaranteed to be
// structure-preserving: a parenthesized predicate group re-binds the
// predicate to EVERY variable in the group, while the generator's
// DISTANCE calls may name a subset. Callers therefore reparse the
// rendering and use the reparsed query on both sides of the comparison;
// renderings the parser rejects (subset-bound DISTANCE over a 3-keyword
// group fails arity validation) are skipped.
std::string SurfaceNode(const mcalc::Node& node);

std::string SurfaceChild(const mcalc::Node& child) {
  if (child.kind == mcalc::NodeKind::kAnd ||
      child.kind == mcalc::NodeKind::kOr) {
    return "(" + SurfaceNode(child) + ")";
  }
  return SurfaceNode(child);  // keyword, !keyword, (group)PRED[...]
}

std::string SurfaceNode(const mcalc::Node& node) {
  switch (node.kind) {
    case mcalc::NodeKind::kKeyword:
      return node.keyword;
    case mcalc::NodeKind::kNot:
      return "!" + SurfaceChild(*node.children[0]);
    case mcalc::NodeKind::kAnd:
    case mcalc::NodeKind::kOr: {
      const char* sep = node.kind == mcalc::NodeKind::kAnd ? " " : " | ";
      std::string out;
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += sep;
        out += SurfaceChild(*node.children[i]);
      }
      return out;
    }
    case mcalc::NodeKind::kConstrained: {
      std::string out = "(" + SurfaceNode(*node.children[0]) + ")";
      for (const mcalc::PredicateCall& call : node.constraints) {
        out += call.name;
        if (!call.params.empty()) {
          out += "[";
          for (size_t i = 0; i < call.params.size(); ++i) {
            if (i > 0) out += ",";
            out += std::to_string(call.params[i]);
          }
          out += "]";
        }
      }
      return out;
    }
  }
  return "";
}

// Sixth configuration: the query travels to the shards as surface-syntax
// text, each shard scores its slice against the pinned global statistics,
// and the merged top-k must be bit-identical — doc ids and %.17g score
// renderings — to the monolithic engine running the SAME reparsed query.
// Queries the engine rejects must fail through the router too: every
// shard answers an error, so the gather errors out rather than merging a
// partial fiction.
std::string CheckRouterQuery(const mcalc::Query& query,
                             const sa::ScoringScheme& scheme) {
  constexpr size_t kTopK = 10;
  const std::string text = SurfaceNode(*query.root);
  auto reparsed = mcalc::ParseQuery(text);
  if (!reparsed.ok()) return "";  // not expressible in surface syntax

  RouterTopology& topology = FuzzRouter();
  // The shards run default options whatever GRAFT_FUZZ_RULE says, so the
  // reference is a default-options monolithic run, not TopKOptions (which
  // the rule filter narrows).
  SearchOptions mono_opts;
  mono_opts.top_k = kTopK;
  mono_opts.use_segmented = false;
  auto topk = MonoEngine().SearchQuery(*reparsed, scheme, mono_opts);

  std::vector<std::string> terms;
  for (const auto& variable : reparsed->variables) {
    terms.push_back(variable.keyword);
  }
  const std::string tail = "q=" + server::UrlEncode(text) +
                           "&scheme=" + std::string(scheme.name());
  auto gathered =
      topology.gather->Search(terms, tail, kTopK, /*budget_ms=*/120000);

  if (!topk.ok()) {
    if (gathered.ok()) {
      return "engine rejected (" + topk.status().ToString() +
             ") but the router merged a result";
    }
    return "";
  }
  if (!gathered.ok()) {
    return "router failed: " + gathered.status().ToString();
  }
  if (gathered->degraded ||
      gathered->shards_ok != topology.gather->shard_count()) {
    return "router degraded with every shard alive (shards_ok " +
           std::to_string(gathered->shards_ok) + ")";
  }
  const std::string want =
      server::SearchService::FormatResultsFragment(topk->results);
  const std::string got =
      server::SearchService::FormatResultsFragment(gathered->results);
  if (want != got) {
    return "router merge diverged from single-process top-k (q=" + text +
           "):\n  router: " + got + "\n  engine: " + want;
  }
  return "";
}

// ---- Minimizer -----------------------------------------------------------

// Rebuilds a standalone Query from a subtree: clones it, renumbers the
// keyword variables densely in appearance order, and remaps predicate-call
// variables. Returns false when the subtree is not self-contained (a
// constraint references a variable bound outside it) or fails validation.
bool RenumberNode(mcalc::Node* node, mcalc::Query* out,
                  std::map<mcalc::VarId, mcalc::VarId>* remap) {
  if (node->kind == mcalc::NodeKind::kKeyword) {
    const mcalc::VarId fresh =
        static_cast<mcalc::VarId>(out->variables.size());
    (*remap)[node->var] = fresh;
    node->var = fresh;
    out->variables.push_back(mcalc::Variable{fresh, node->keyword});
  }
  for (mcalc::NodePtr& child : node->children) {
    if (!RenumberNode(child.get(), out, remap)) return false;
  }
  for (mcalc::PredicateCall& call : node->constraints) {
    for (mcalc::VarId& var : call.vars) {
      const auto it = remap->find(var);
      if (it == remap->end()) return false;
      var = it->second;
    }
  }
  return true;
}

bool RebuildQuery(const mcalc::Node& root, mcalc::Query* out) {
  mcalc::Query rebuilt;
  rebuilt.root = root.ClonePtr();
  std::map<mcalc::VarId, mcalc::VarId> remap;
  if (!RenumberNode(rebuilt.root.get(), &rebuilt, &remap)) return false;
  if (!mcalc::ValidateQuery(rebuilt).ok()) return false;
  *out = std::move(rebuilt);
  return true;
}

size_t CountNodes(const mcalc::Node& node) {
  size_t n = 1;
  for (const mcalc::NodePtr& child : node.children) {
    n += CountNodes(*child);
  }
  return n;
}

void CollectNodes(mcalc::Node* node, std::vector<mcalc::Node*>* out) {
  out->push_back(node);
  for (mcalc::NodePtr& child : node->children) {
    CollectNodes(child.get(), out);
  }
}

// All one-step shrinks of `query` that validate, smaller-first is not
// required — the greedy loop below only accepts candidates with fewer
// nodes than the current repro.
std::vector<mcalc::Query> ShrinkCandidates(const mcalc::Query& query) {
  std::vector<mcalc::Query> candidates;
  const mcalc::Node& root = *query.root;

  // Subtree promotion: any descendant becomes the whole query.
  std::vector<const mcalc::Node*> subtrees;
  {
    std::vector<mcalc::Node*> nodes;
    CollectNodes(const_cast<mcalc::Node*>(&root), &nodes);
    for (mcalc::Node* node : nodes) {
      if (node == &root) continue;
      subtrees.push_back(node);
    }
  }
  for (const mcalc::Node* subtree : subtrees) {
    mcalc::Query candidate;
    if (RebuildQuery(*subtree, &candidate)) {
      candidates.push_back(std::move(candidate));
    }
  }

  // In-place structural shrinks on a fresh clone each: drop one child of an
  // And/Or (collapsing to the surviving child when only one remains), strip
  // a Not or Constrained wrapper.
  std::vector<mcalc::Node*> positions;
  {
    mcalc::Query probe = query.Clone();
    CollectNodes(probe.root.get(), &positions);
    // Only the COUNT matters; each mutation below re-clones and re-collects
    // so the pointers stay valid for that clone.
  }
  const size_t num_positions = positions.size();
  for (size_t pos = 0; pos < num_positions; ++pos) {
    mcalc::Query probe = query.Clone();
    std::vector<mcalc::Node*> nodes;
    CollectNodes(probe.root.get(), &nodes);
    mcalc::Node* node = nodes[pos];
    if (node->kind == mcalc::NodeKind::kAnd ||
        node->kind == mcalc::NodeKind::kOr) {
      const size_t arity = node->children.size();
      for (size_t drop = 0; drop < arity; ++drop) {
        mcalc::Query variant = query.Clone();
        std::vector<mcalc::Node*> vnodes;
        CollectNodes(variant.root.get(), &vnodes);
        mcalc::Node* vnode = vnodes[pos];
        vnode->children.erase(vnode->children.begin() +
                              static_cast<ptrdiff_t>(drop));
        if (vnode->children.size() == 1) {
          mcalc::NodePtr only = std::move(vnode->children[0]);
          *vnode = std::move(*only);
        }
        mcalc::Query candidate;
        if (RebuildQuery(*variant.root, &candidate)) {
          candidates.push_back(std::move(candidate));
        }
      }
    } else if (node->kind == mcalc::NodeKind::kNot ||
               node->kind == mcalc::NodeKind::kConstrained) {
      mcalc::Query variant = query.Clone();
      std::vector<mcalc::Node*> vnodes;
      CollectNodes(variant.root.get(), &vnodes);
      mcalc::Node* vnode = vnodes[pos];
      mcalc::NodePtr child = std::move(vnode->children[0]);
      *vnode = std::move(*child);
      mcalc::Query candidate;
      if (RebuildQuery(*variant.root, &candidate)) {
        candidates.push_back(std::move(candidate));
      }
    }
  }
  return candidates;
}

// Greedily shrinks `query` while `check` (CheckQuery for the in-process
// configurations, CheckRouterQuery for the distributed one) still reports
// a disagreement for `scheme`. Bounded so a pathological repro cannot
// hang the test.
using QueryChecker = std::string (*)(const mcalc::Query&,
                                     const sa::ScoringScheme&);

mcalc::Query Minimize(mcalc::Query query, const sa::ScoringScheme& scheme,
                      QueryChecker check = &CheckQuery) {
  for (int round = 0; round < 64; ++round) {
    const size_t current = CountNodes(*query.root);
    bool improved = false;
    for (mcalc::Query& candidate : ShrinkCandidates(query)) {
      if (CountNodes(*candidate.root) >= current) continue;
      if (!check(candidate, scheme).empty()) {
        query = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  return query;
}

// EXPLAIN-style rendering of the unoptimized and optimized plans for the
// failure report: physical plan plus the full rewrite-attempt table.
std::string ExplainBoth(const mcalc::Query& query,
                        const sa::ScoringScheme& scheme) {
  std::string out;
  const auto render = [&](const char* title, OptimizerOptions options) {
    Optimizer optimizer(&scheme, options);
    auto plan = optimizer.Optimize(query, FuzzIndex());
    out += title;
    out += ":\n";
    if (!plan.ok()) {
      out += "  optimize failed: " + plan.status().ToString() + "\n";
      return;
    }
    out += ma::PlanToString(*plan->plan);
    out += "rewrites:\n";
    out += FormatRewriteAttempts(plan->attempts);
  };
  render("unoptimized plan", BaseOptions().optimizer);
  render("optimized plan", OptimizerOptions{});
  return out;
}

// ---- The fuzzer ----------------------------------------------------------

class ScoreConsistencyFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ScoreConsistencyFuzzTest, AllPlansBitIdenticalForEveryScheme) {
  const uint64_t base_seed = EnvOr("GRAFT_FUZZ_SEED", 8312011u);
  const uint64_t iters = EnvOr("GRAFT_FUZZ_ITERS", 50u);
  const uint64_t shard = static_cast<uint64_t>(GetParam());
  // Log the effective seed so a failing CI run (random-seed job) can be
  // replayed exactly with GRAFT_FUZZ_SEED.
  std::fprintf(stderr, "[fuzz] shard=%llu base_seed=%llu iters=%llu\n",
               static_cast<unsigned long long>(shard),
               static_cast<unsigned long long>(base_seed),
               static_cast<unsigned long long>(iters));

  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base_seed + shard * 1000003u + i;
    QueryGenerator generator(seed);
    const mcalc::Query query = generator.Generate();
    ASSERT_TRUE(mcalc::ValidateQuery(query).ok())
        << "generator produced invalid query (seed " << seed
        << "): " << mcalc::ToMCalcString(query);
    if (std::getenv("GRAFT_FUZZ_VERBOSE") != nullptr) {
      std::fprintf(stderr, "[fuzz] seed=%llu query=%s\n",
                   static_cast<unsigned long long>(seed),
                   mcalc::ToMCalcString(query).c_str());
    }

    for (const sa::ScoringScheme* scheme :
         sa::SchemeRegistry::Global().All()) {
      const std::string diff = CheckQuery(query, *scheme);
      if (diff.empty()) continue;
      const mcalc::Query minimized = Minimize(query.Clone(), *scheme);
      const std::string min_diff = CheckQuery(minimized, *scheme);
      FAIL() << "score inconsistency (seed " << seed << ", scheme "
             << scheme->name() << "): " << diff
             << "\nminimized query: " << mcalc::ToMCalcString(minimized)
             << "\nminimized disagreement: "
             << (min_diff.empty() ? diff : min_diff) << "\n"
             << ExplainBoth(minimized, *scheme);
    }
  }
}

// Sixth configuration, separately parameterized so a router disagreement
// is attributed to the distributed path and not mistaken for an engine
// inconsistency (the in-process variant above stays green when only the
// wire protocol or the merge is wrong).
TEST_P(ScoreConsistencyFuzzTest, RouterMergeBitIdenticalForEveryScheme) {
  const uint64_t base_seed = EnvOr("GRAFT_FUZZ_SEED", 8312011u);
  const uint64_t iters = EnvOr("GRAFT_FUZZ_ITERS", 50u);
  const uint64_t shard = static_cast<uint64_t>(GetParam());
  std::fprintf(stderr, "[fuzz/router] shard=%llu base_seed=%llu iters=%llu\n",
               static_cast<unsigned long long>(shard),
               static_cast<unsigned long long>(base_seed),
               static_cast<unsigned long long>(iters));

  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base_seed + shard * 1000003u + i;
    QueryGenerator generator(seed);
    const mcalc::Query query = generator.Generate();
    ASSERT_TRUE(mcalc::ValidateQuery(query).ok())
        << "generator produced invalid query (seed " << seed
        << "): " << mcalc::ToMCalcString(query);

    for (const sa::ScoringScheme* scheme :
         sa::SchemeRegistry::Global().All()) {
      const std::string diff = CheckRouterQuery(query, *scheme);
      if (diff.empty()) continue;
      const mcalc::Query minimized =
          Minimize(query.Clone(), *scheme, &CheckRouterQuery);
      const std::string min_diff = CheckRouterQuery(minimized, *scheme);
      FAIL() << "router inconsistency (seed " << seed << ", scheme "
             << scheme->name() << "): " << diff
             << "\nminimized query: " << mcalc::ToMCalcString(minimized)
             << "\nminimized disagreement: "
             << (min_diff.empty() ? diff : min_diff);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ScoreConsistencyFuzzTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace graft::core
