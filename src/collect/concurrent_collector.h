// Thread-safe front-end for one shard group's collection state: a single
// ShardedCollector behind one mutex.
//
// Ingest is synchronous. submit_views() merges a whole batch of decoded
// RecordViews under one lock acquisition and has finished when it returns,
// so every query afterwards observes it without a barrier, and the class
// starts no threads. Queries take the same lock and forward to the
// ShardedCollector methods that already merge across shards (fleet, the
// top-k heap merge over the per-shard rank indexes, link distributions, the
// O(1) epoch count).
// Queries count as writes here: a top-k query may rebuild a stale rank
// index (see sharded_collector.h), which the lock covers.
//
// Because sketch merge is exact and commutative, any interleaving of
// concurrent submit_views() callers converges to the state a serial
// ShardedCollector reaches on the same records, bin for bin; tests assert
// exactly that.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"

namespace rlir::collect {

/// Thread-safe sharded collector: submit_views() and every query may be
/// called from any thread.
class ConcurrentShardedCollector {
 public:
  ConcurrentShardedCollector() : ConcurrentShardedCollector(CollectorConfig{}) {}
  /// Throws std::invalid_argument if shard_count is 0 or top_k_quantile is
  /// outside [0, 1].
  explicit ConcurrentShardedCollector(CollectorConfig config) : state_(config) {}

  ConcurrentShardedCollector(const ConcurrentShardedCollector&) = delete;
  ConcurrentShardedCollector& operator=(const ConcurrentShardedCollector&) = delete;

  /// Zero-copy batch ingest: merges decoded RecordViews (borrowing the
  /// caller's frame payload) under one lock acquisition per batch.
  /// Validates every record first (std::invalid_argument on an accuracy
  /// mismatch), so a bad batch is rejected whole and leaves the state
  /// untouched.
  void submit_views(const std::vector<RecordView>& batch);

  /// Attaches a history store tee (see ShardedCollector::set_history):
  /// every record submitted after the call is also appended to it. Null
  /// detaches.
  void set_history(SketchHistoryStore* history);

  // --- Queries --------------------------------------------------------------

  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q);
  [[nodiscard]] std::optional<FlowSummary> flow_summary(const net::FiveTuple& key);
  /// One flow's merged sketch by value (the transport tier ships it to a
  /// coordinator, which merges split flows bin-wise); nullopt if unseen.
  [[nodiscard]] std::optional<common::LatencySketch> flow_sketch(const net::FiveTuple& key);
  [[nodiscard]] std::optional<common::LatencySketch> link_distribution(LinkId link);
  [[nodiscard]] std::vector<LinkId> links();
  /// Every link with data and its merged distribution, ascending by link —
  /// one lock + one pass instead of links() + a query per link.
  [[nodiscard]] std::vector<std::pair<LinkId, common::LatencySketch>> link_distributions();
  [[nodiscard]] common::LatencySketch fleet();
  /// The k worst flows at quantile q with their ranking values (what a
  /// higher tier or the transport query plane merges/ships).
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q);

  /// A plain (single-threaded) ShardedCollector holding a merged copy of the
  /// current state — the bridge to the serial query/merge/replica APIs and
  /// the equivalence oracle in tests. Built fresh and merge()d into, so its
  /// sketches are sized by their contents, not by the live state's history.
  [[nodiscard]] ShardedCollector snapshot();

  // --- Accounting ------------------------------------------------------------

  [[nodiscard]] std::size_t flow_count();
  [[nodiscard]] std::uint64_t records_ingested();
  [[nodiscard]] std::uint64_t estimates_ingested();
  [[nodiscard]] std::size_t epoch_count();
  [[nodiscard]] std::vector<std::size_t> shard_flow_counts();
  [[nodiscard]] const CollectorConfig& config() const { return state_.config(); }

 private:
  std::mutex mu_;
  ShardedCollector state_;  // guarded by mu_
};

}  // namespace rlir::collect
