#include "router/scatter_gather.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>

namespace graft::router {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedMs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

// ---- strict mini-parsers for the two shard reply shapes ----
//
// These accept exactly what SearchService serializes. Anything else —
// including a garbled or mid-stream-cut body from the chaos failpoints —
// is DataLoss, which the gather loop counts as a shard failure. The
// parsers never trust lengths or run past the buffer.

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool SkipTo(std::string_view marker) {
    const size_t pos = text_.find(marker, at_);
    if (pos == std::string_view::npos) return false;
    at_ = pos + marker.size();
    return true;
  }

  bool Literal(char c) {
    if (at_ >= text_.size() || text_[at_] != c) return false;
    ++at_;
    return true;
  }

  bool Peek(char c) const { return at_ < text_.size() && text_[at_] == c; }

  bool U64(uint64_t* out) {
    size_t i = at_;
    uint64_t value = 0;
    while (i < text_.size() && text_[i] >= '0' && text_[i] <= '9') {
      const uint64_t digit = static_cast<uint64_t>(text_[i] - '0');
      if (value > (UINT64_MAX - digit) / 10) return false;
      value = value * 10 + digit;
      ++i;
    }
    if (i == at_) return false;
    at_ = i;
    *out = value;
    return true;
  }

  // %.17g-rendered double (round-trips exactly through strtod).
  bool Double(double* out) {
    if (at_ >= text_.size()) return false;
    const std::string token(text_.substr(at_, 64));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) return false;
    at_ += static_cast<size_t>(end - token.c_str());
    *out = value;
    return true;
  }

  // JSON string content up to the closing quote; handles the escapes
  // JsonAppendEscaped emits. The opening quote must already be consumed.
  bool JsonString(std::string* out) {
    out->clear();
    while (at_ < text_.size()) {
      const char c = text_[at_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_ >= text_.size()) return false;
      const char esc = text_[at_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (at_ + 4 > text_.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            int nibble;
            if (h >= '0' && h <= '9') nibble = h - '0';
            else if (h >= 'a' && h <= 'f') nibble = h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') nibble = h - 'A' + 10;
            else return false;
            value = value * 16 + static_cast<unsigned>(nibble);
          }
          // The serializer only \u-escapes control bytes (< 0x20).
          if (value > 0xFF) return false;
          out->push_back(static_cast<char>(value));
          break;
        }
        default:
          return false;
      }
    }
    return false;  // ran off the end before the closing quote
  }

 private:
  std::string_view text_;
  size_t at_ = 0;
};

}  // namespace

StatusOr<std::vector<ma::ScoredDoc>> ParseResultsFragment(
    std::string_view body) {
  Cursor cursor(body);
  if (!cursor.SkipTo("\"results\":[")) {
    return Status::DataLoss("shard reply: no results array");
  }
  std::vector<ma::ScoredDoc> results;
  if (cursor.Literal(']')) return results;
  while (true) {
    uint64_t doc = 0;
    double score = 0.0;
    if (!cursor.SkipTo("{\"doc\":") || !cursor.U64(&doc) ||
        !cursor.SkipTo(",\"score\":") || !cursor.Double(&score) ||
        !cursor.Literal('}')) {
      return Status::DataLoss("shard reply: malformed result entry");
    }
    if (doc > std::numeric_limits<DocId>::max()) {
      return Status::DataLoss("shard reply: doc id out of range");
    }
    results.push_back(
        ma::ScoredDoc{static_cast<DocId>(doc), score});
    if (cursor.Literal(']')) break;
    if (!cursor.Literal(',')) {
      return Status::DataLoss("shard reply: results array not terminated");
    }
  }
  return results;
}

StatusOr<ShardStatsReply> ParseShardStatsReply(std::string_view body) {
  Cursor cursor(body);
  ShardStatsReply reply;
  if (!cursor.SkipTo("\"generation\":") || !cursor.U64(&reply.generation) ||
      !cursor.SkipTo("\"doc_count\":") || !cursor.U64(&reply.doc_count) ||
      !cursor.SkipTo("\"total_words\":") || !cursor.U64(&reply.total_words) ||
      !cursor.SkipTo("\"terms\":[")) {
    return Status::DataLoss("shard stats reply: malformed header");
  }
  if (cursor.Literal(']')) return reply;
  while (true) {
    server::PinnedTermStats term;
    if (!cursor.SkipTo("{\"term\":\"") || !cursor.JsonString(&term.term) ||
        !cursor.SkipTo(",\"df\":") || !cursor.U64(&term.doc_freq) ||
        !cursor.SkipTo(",\"cf\":") || !cursor.U64(&term.collection_freq) ||
        !cursor.Literal('}')) {
      return Status::DataLoss("shard stats reply: malformed term entry");
    }
    reply.terms.push_back(std::move(term));
    if (cursor.Literal(']')) break;
    if (!cursor.Literal(',')) {
      return Status::DataLoss("shard stats reply: terms array not terminated");
    }
  }
  return reply;
}

ScatterGather::ScatterGather(
    std::vector<std::vector<uint16_t>> shard_replicas,
    ScatterGatherOptions options)
    : options_(options) {
  // Two slots per shard: the fan-out leg plus a possible hedged primary
  // leg can be in flight simultaneously without queueing behind each
  // other.
  const size_t workers = options_.fanout_threads != 0
                             ? options_.fanout_threads
                             : std::max<size_t>(1, shard_replicas.size() * 2);
  // No more legs than fan-out workers run against one replica at once, so
  // no more pooled connections to it are worth keeping.
  shards_.reserve(shard_replicas.size());
  for (size_t i = 0; i < shard_replicas.size(); ++i) {
    shards_.push_back(std::make_unique<ShardClient>(
        i, std::move(shard_replicas[i]), options_.client,
        options_.jitter_seed, workers));
  }
  pool_ = std::make_unique<common::ThreadPool>(workers);
}

ScatterGather::~ScatterGather() {
  StopProbes();
  // pool_ is destroyed before shards_ (reverse member order), so no leg
  // can touch a dead ShardClient.
  pool_.reset();
}

void ScatterGather::StartProbes() {
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (probes_running_) return;
  probe_stop_ = false;
  probes_running_ = true;
  probe_thread_ = std::thread([this] { ProbeLoop(); });
}

void ScatterGather::StopProbes() {
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    if (!probes_running_) return;
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  probe_thread_.join();
  std::lock_guard<std::mutex> lock(probe_mu_);
  probes_running_ = false;
}

void ScatterGather::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mu_);
  while (!probe_stop_) {
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.probe_interval_ms),
                       [this] { return probe_stop_; });
    if (probe_stop_) return;
    lock.unlock();
    for (const auto& shard : shards_) {
      shard->ProbeEjected();
    }
    lock.lock();
  }
}

void ScatterGather::InvalidateStats() {
  // Caller holds stats_mu_.
  stats_cache_ = StatsCache();
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  counters_.stats_refreshes.fetch_add(1, std::memory_order_relaxed);
}

StatusOr<server::PinnedStats> ScatterGather::CollectStats(
    const std::vector<std::string>& terms, uint64_t budget_ms,
    std::vector<uint64_t>* bases, std::vector<uint64_t>* generations) {
  const Clock::time_point start = Clock::now();
  // Deterministic unique term order (also the gstats emission order).
  const std::set<std::string> unique(terms.begin(), terms.end());

  // Fast path: everything cached under the current epoch — no wire I/O,
  // which is what lets a query whose terms were collected while a shard
  // was healthy still be answered (partially) after that shard dies.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (stats_cache_.primed &&
        std::all_of(unique.begin(), unique.end(),
                    [this](const std::string& term) {
                      return stats_cache_.terms.contains(term);
                    })) {
      return PinnedFromCacheLocked(unique, bases, generations);
    }
  }

  // Slow path: one collection round over every shard. Correct global
  // statistics are a sum over ALL shards, so the round only succeeds when
  // every shard answers (each ShardClient retries and fails over across
  // replicas internally). A reply at a generation other than the cached
  // one re-primes the cache from this same round; a reload that lands
  // after it surfaces as Search's 409, which re-collects.
  std::string target = "/shard/stats?terms=";
  {
    std::string joined;
    for (const std::string& term : unique) {
      if (!joined.empty()) joined += ',';
      joined += term;
    }
    target += server::UrlEncode(joined);
  }

  const uint64_t elapsed = ElapsedMs(start);
  if (elapsed >= budget_ms) {
    return Status::IOError("stats collection deadline exhausted");
  }
  const uint64_t remaining = budget_ms - elapsed;

  const size_t n = shards_.size();
  std::vector<StatusOr<ShardStatsReply>> replies(
      n, Status::Internal("unreached"));
  common::ParallelFor(pool_.get(), 0, n, [&](size_t i) {
    StatusOr<server::HttpClientResponse> response =
        shards_[i]->Get(target, remaining);
    if (!response.ok()) {
      replies[i] = response.status();
      return;
    }
    if (response->status_code != 200) {
      replies[i] = Status::IOError(
          "shard " + std::to_string(i) + " /shard/stats answered " +
          std::to_string(response->status_code));
      return;
    }
    replies[i] = ParseShardStatsReply(response->body);
  });

  for (size_t i = 0; i < n; ++i) {
    if (!replies[i].ok()) {
      return Status::IOError(
          "stats collection failed for shard " + std::to_string(i) + ": " +
          std::string(replies[i].status().message()));
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  // A concurrent round may have primed the cache at different
  // generations, or a shard may have reloaded since the cache was
  // primed. Either way the safe reaction is identical: rebuild the
  // cache from this round's replies under a fresh epoch. (A benign
  // re-fetch of already-cached terms just overwrites equal sums.)
  if (stats_cache_.primed) {
    for (size_t i = 0; i < n; ++i) {
      if (stats_cache_.generations[i] != (*replies[i]).generation) {
        InvalidateStats();
        break;
      }
    }
  }

  if (!stats_cache_.primed) {
    stats_cache_.primed = true;
    stats_cache_.doc_count = 0;
    stats_cache_.total_words = 0;
    stats_cache_.bases.assign(n, 0);
    stats_cache_.generations.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      stats_cache_.bases[i] = stats_cache_.doc_count;
      stats_cache_.doc_count += (*replies[i]).doc_count;
      stats_cache_.total_words += (*replies[i]).total_words;
      stats_cache_.generations[i] = (*replies[i]).generation;
    }
  }

  // Fold per-term sums. Every reply lists the same terms in the same
  // order (the shards parse the same `terms=` string).
  std::unordered_map<std::string, TermStats> sums;
  for (size_t i = 0; i < n; ++i) {
    for (const server::PinnedTermStats& term : (*replies[i]).terms) {
      TermStats& slot = sums[term.term];
      slot.df += term.doc_freq;
      slot.cf += term.collection_freq;
    }
  }
  for (auto& [term, stats] : sums) {
    stats_cache_.terms[term] = stats;
  }
  return PinnedFromCacheLocked(unique, bases, generations);
}

StatusOr<server::PinnedStats> ScatterGather::PinnedFromCacheLocked(
    const std::set<std::string>& terms, std::vector<uint64_t>* bases,
    std::vector<uint64_t>* generations) const {
  server::PinnedStats pinned;
  pinned.doc_count = stats_cache_.doc_count;
  pinned.total_words = stats_cache_.total_words;
  for (const std::string& term : terms) {
    const auto it = stats_cache_.terms.find(term);
    if (it == stats_cache_.terms.end()) {
      return Status::Internal("stats collection lost term: " + term);
    }
    pinned.terms.push_back(
        server::PinnedTermStats{term, it->second.df, it->second.cf});
  }
  *bases = stats_cache_.bases;
  *generations = stats_cache_.generations;
  return pinned;
}

StatusOr<server::HttpClientResponse> ScatterGather::FanOne(
    size_t shard, const std::string& target, uint64_t budget_ms,
    ShardOutcome* outcome) {
  ShardClient* client = shards_[shard].get();
  const bool hedgeable = options_.hedge_ms > 0 &&
                         options_.hedge_ms < budget_ms &&
                         client->replica_count() >= 2;
  if (!hedgeable) {
    return client->Get(target, budget_ms, &outcome->attempts,
                       &outcome->port);
  }

  // Hedged request: the primary (with its own retry loop) runs on a pool
  // worker; if it has not answered after hedge_ms, a single hedge attempt
  // races it from this thread and the first usable reply wins. The losing
  // leg finishes on its own (bounded by budget/io timeouts) holding only
  // the shared race state.
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<StatusOr<server::HttpClientResponse>> primary;
    size_t primary_attempts = 0;
    uint16_t primary_port = 0;
  };
  auto race = std::make_shared<Race>();
  std::function<void()> primary_leg = [client, target, budget_ms, race] {
    size_t attempts = 0;
    uint16_t port = 0;
    StatusOr<server::HttpClientResponse> reply =
        client->Get(target, budget_ms, &attempts, &port);
    {
      std::lock_guard<std::mutex> lock(race->mu);
      race->primary = std::move(reply);
      race->primary_attempts = attempts;
      race->primary_port = port;
    }
    race->cv.notify_all();
  };
  if (!pool_->Submit(primary_leg)) {
    // Pool shutting down: no hedge race possible, run the leg inline.
    primary_leg();
  }

  {
    std::unique_lock<std::mutex> lock(race->mu);
    if (race->cv.wait_for(lock, std::chrono::milliseconds(options_.hedge_ms),
                          [&] { return race->primary.has_value(); })) {
      outcome->attempts = race->primary_attempts;
      outcome->port = race->primary_port;
      return std::move(*race->primary);
    }
  }

  // Straggler: launch the hedge leg.
  counters_.hedges_launched.fetch_add(1, std::memory_order_relaxed);
  outcome->hedged = true;
  uint16_t hedge_port = 0;
  StatusOr<server::HttpClientResponse> hedge =
      client->GetOnce(target, budget_ms - options_.hedge_ms, &hedge_port);
  const bool hedge_usable =
      hedge.ok() && hedge->status_code < 500;

  std::unique_lock<std::mutex> lock(race->mu);
  if (hedge_usable && !race->primary.has_value()) {
    counters_.hedges_won.fetch_add(1, std::memory_order_relaxed);
    outcome->attempts = 1;  // the hedge leg alone produced the verdict
    outcome->port = hedge_port;
    return hedge;
  }
  // Wait for the primary (bounded: its budget expires) and prefer it when
  // usable, else fall back to a usable hedge.
  race->cv.wait(lock, [&] { return race->primary.has_value(); });
  outcome->attempts = race->primary_attempts + 1;
  const bool primary_usable =
      race->primary->ok() && (*race->primary)->status_code < 500;
  if (primary_usable) {
    outcome->port = race->primary_port;
    return std::move(*race->primary);
  }
  if (hedge_usable) {
    counters_.hedges_won.fetch_add(1, std::memory_order_relaxed);
    outcome->port = hedge_port;
    return hedge;
  }
  outcome->port = race->primary_port;
  return std::move(*race->primary);
}

StatusOr<GatherResult> ScatterGather::Search(
    const std::vector<std::string>& terms,
    const std::string& raw_search_params, size_t k, uint64_t budget_ms) {
  counters_.gathers_total.fetch_add(1, std::memory_order_relaxed);
  if (k == 0) {
    return Status::InvalidArgument(
        "distributed search requires k > 0 (full result sets would need "
        "unbounded shard result exchange)");
  }
  if (shards_.empty()) {
    return Status::FailedPrecondition("no shards configured");
  }
  const Clock::time_point start = Clock::now();
  const size_t n = shards_.size();

  GatherResult gathered;
  gathered.shards_total = n;
  gathered.outcomes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    gathered.outcomes[i].shard = i;
    gathered.outcomes[i].outcome = "skipped";
  }

  std::vector<std::vector<ma::ScoredDoc>> partials(n);

  // Conflict-driven outer loop: a 409 from any shard means a generation
  // moved after phase 1; re-collect and re-broadcast. Bounded.
  for (size_t round = 0; round <= options_.max_stats_refreshes; ++round) {
    // ---- phase 1: pin whole-corpus statistics ----
    std::vector<uint64_t> bases;
    std::vector<uint64_t> generations;
    StatusOr<server::PinnedStats> pinned = CollectStats(
        terms, budget_ms > ElapsedMs(start) ? budget_ms - ElapsedMs(start) : 0,
        &bases, &generations);
    if (!pinned.ok()) {
      counters_.gathers_failed.fetch_add(1, std::memory_order_relaxed);
      return pinned.status();
    }
    gathered.stats_epoch = stats_epoch();
    const std::string gstats =
        server::UrlEncode(server::EncodePinnedStats(*pinned));

    // ---- phase 2: broadcast + gather ----
    const uint64_t elapsed = ElapsedMs(start);
    if (elapsed >= budget_ms) {
      counters_.gathers_failed.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("request budget exhausted before fan-out");
    }
    const uint64_t fan_budget = budget_ms - elapsed;

    std::atomic<bool> saw_conflict{false};
    common::ParallelFor(pool_.get(), 0, n, [&](size_t i) {
      ShardOutcome& outcome = gathered.outcomes[i];
      outcome = ShardOutcome();
      outcome.shard = i;
      const Clock::time_point shard_start = Clock::now();
      const std::string target =
          "/search?" + raw_search_params + "&k=" + std::to_string(k) +
          "&deadline_ms=" + std::to_string(fan_budget) +
          "&gstats=" + gstats +
          "&expect_gen=" + std::to_string(generations[i]);
      StatusOr<server::HttpClientResponse> reply =
          FanOne(i, target, fan_budget, &outcome);
      outcome.latency_ms =
          static_cast<double>(ElapsedMs(shard_start));
      partials[i].clear();
      if (!reply.ok()) {
        outcome.outcome = "failed";
        outcome.error = std::string(reply.status().message());
        return;
      }
      if (reply->status_code == 409) {
        counters_.gen_conflicts.fetch_add(1, std::memory_order_relaxed);
        saw_conflict.store(true, std::memory_order_release);
        outcome.outcome = "conflict";
        outcome.error = "generation moved after stats collection";
        return;
      }
      if (reply->status_code != 200) {
        outcome.outcome = "failed";
        outcome.error = "shard answered " +
                        std::to_string(reply->status_code) + ": " +
                        reply->body.substr(0, 160);
        return;
      }
      StatusOr<std::vector<ma::ScoredDoc>> parsed =
          ParseResultsFragment(reply->body);
      if (!parsed.ok()) {
        outcome.outcome = "failed";
        outcome.error = std::string(parsed.status().message());
        return;
      }
      // Local → global doc ids (contiguous split: global = base + local).
      for (ma::ScoredDoc& hit : *parsed) {
        hit.doc += static_cast<DocId>(bases[i]);
      }
      partials[i] = std::move(*parsed);
      outcome.outcome = "ok";
      outcome.results = partials[i].size();
    });

    if (saw_conflict.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        InvalidateStats();
      }
      if (round < options_.max_stats_refreshes &&
          ElapsedMs(start) < budget_ms) {
        continue;  // re-collect and re-broadcast
      }
      // Out of rounds/budget: conflicted shards count as failures below.
    }
    break;
  }

  // ---- merge + partial policy ----
  for (const ShardOutcome& outcome : gathered.outcomes) {
    if (outcome.outcome == "ok") ++gathered.shards_ok;
  }
  gathered.degraded = gathered.shards_ok != n;
  if (gathered.shards_ok == 0 ||
      (gathered.degraded && options_.partial_policy == PartialPolicy::kFail)) {
    counters_.gathers_failed.fetch_add(1, std::memory_order_relaxed);
    std::string detail;
    for (const ShardOutcome& outcome : gathered.outcomes) {
      if (outcome.outcome == "ok") continue;
      if (!detail.empty()) detail += "; ";
      detail += "shard " + std::to_string(outcome.shard) + ": " +
                (outcome.error.empty() ? outcome.outcome : outcome.error);
    }
    return Status::IOError(
        (gathered.shards_ok == 0 ? "every shard failed: "
                                 : "partial results forbidden by policy: ") +
        detail);
  }

  // The engine's own merge of ranked streams, so the router's ranking
  // coincides with the single-process one whenever the per-document scores
  // do (which the pinned statistics guarantee).
  gathered.results = ma::MergeRanked(std::move(partials), k);

  if (gathered.degraded) {
    counters_.gathers_partial.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.gathers_ok.fetch_add(1, std::memory_order_relaxed);
  }
  return gathered;
}

}  // namespace graft::router
