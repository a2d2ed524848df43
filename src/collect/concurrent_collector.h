// Concurrent front-end for the sharded collection tier: line-rate estimate
// streams from many vantage points can be submitted from any thread, while
// per-shard worker threads fold them into collector state in parallel.
//
// Architecture: one "lane" per shard. A lane owns
//   * a bounded MPSC queue (mutex + condvar) that submit() routes records
//     into by flow-key hash — producers only pay an enqueue on the hot path;
//   * a worker thread that drains the queue in batches and merges them into
//     the lane's state;
//   * a single-shard ShardedCollector as that state, guarded by a per-lane
//     mutex — which is also the fallback path: when the queue is full (or
//     the collector is configured queueless), the submitting thread takes
//     the lane mutex and merges inline instead of blocking on the queue.
//
// Because sketch merge is exact and commutative, the interleaving of worker
// and fallback applications is irrelevant: any submission order converges to
// the same state a serial ShardedCollector would reach — tests assert exact
// (bin-for-bin) equality, and quiesce() is the barrier that makes queries
// read a consistent snapshot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/instrument.h"

namespace rlir::collect {

struct ConcurrentCollectorConfig {
  /// Lane fan-out: shards, queues, and worker threads all scale with this.
  /// Must be >= 1.
  std::size_t shard_count = 8;
  /// Per-lane queue bound (records). A full queue pushes the submitting
  /// thread onto the mutex fallback path instead of blocking. 0 selects the
  /// queueless mode: no worker threads at all, every submit() merges inline
  /// under the lane mutex (mutex-per-shard sharing, still thread-safe).
  std::size_t queue_capacity = 1024;
  /// Accuracy/budget of the shard-side merged sketches (must match the
  /// exporters', as in ShardedCollector).
  common::LatencySketchConfig sketch;
  /// Quantile the per-lane top-k rank indexes are keyed on.
  double top_k_quantile = 0.99;
  /// Observability attachment (see obs/instrument.h). Null members = the
  /// collector owns a private registry/trace.
  obs::Instruments instruments;
};

/// Thread-safe sharded collector: submit() from any thread, thread-per-shard
/// ingest, quiesce() barrier, and the same query surface as ShardedCollector
/// (every query quiesces first, so it observes all prior submissions).
class ConcurrentShardedCollector {
 public:
  ConcurrentShardedCollector() : ConcurrentShardedCollector(ConcurrentCollectorConfig{}) {}
  /// Throws std::invalid_argument if shard_count is 0 or top_k_quantile is
  /// outside [0, 1]. Spawns shard_count worker threads unless
  /// queue_capacity == 0.
  explicit ConcurrentShardedCollector(ConcurrentCollectorConfig config);
  /// Drains every queue, then stops and joins the workers.
  ~ConcurrentShardedCollector();

  ConcurrentShardedCollector(const ConcurrentShardedCollector&) = delete;
  ConcurrentShardedCollector& operator=(const ConcurrentShardedCollector&) = delete;

  /// Routes one record to its lane. Callable from any thread. Validates the
  /// sketch accuracy on the calling thread (std::invalid_argument), so a bad
  /// record never reaches a worker. Record application may complete after
  /// submit() returns; quiesce() (or any query) is the barrier.
  void submit(EstimateRecord record);
  /// Batch path: partitions by lane and enqueues each lane's share under one
  /// lock (one wake-up per lane instead of per record) — the line-rate entry
  /// point. Validates every record before enqueuing any, so a bad batch is
  /// rejected whole.
  void submit(std::vector<EstimateRecord> batch);

  /// Zero-copy batch ingest: merges decoded RecordViews inline under the
  /// per-lane state locks (views borrow the frame payload, so they cannot
  /// ride a queue past the caller's stack frame; inline application is what
  /// makes borrowing safe). Converges to the same state as submit() of the
  /// materialized records — merge is exact and commutative. Validates every
  /// record before touching any lane (std::invalid_argument on accuracy
  /// mismatch, whole batch rejected). Synchronous: complete when it returns.
  void submit_views(const std::vector<RecordView>& batch);

  /// Blocks until every lane's queue is fully drained — a superset of "all
  /// records submitted before this call are merged". Under sustained
  /// concurrent submission this waits for the later records too; pause the
  /// producers when a point-in-time answer matters. Queries call this
  /// implicitly.
  void quiesce();

  /// Attaches a history store tee to every lane (see
  /// ShardedCollector::set_history); the store is internally synchronized,
  /// so lanes share one safely. Quiesces first, so records submitted before
  /// the call land entirely on the old attachment (or none) and records
  /// submitted after land on the new one. Null detaches.
  void set_history(SketchHistoryStore* history);
  [[nodiscard]] SketchHistoryStore* history();

  // --- Queries (each quiesces, then reads under the lane locks) -----------

  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q);
  [[nodiscard]] std::optional<FlowSummary> flow_summary(const net::FiveTuple& key);
  /// One flow's merged sketch by value (the transport tier ships it to a
  /// coordinator, which merges split flows bin-wise); nullopt if unseen.
  [[nodiscard]] std::optional<common::LatencySketch> flow_sketch(const net::FiveTuple& key);
  [[nodiscard]] std::optional<common::LatencySketch> link_distribution(LinkId link);
  [[nodiscard]] std::vector<LinkId> links();
  /// Every link with data and its merged distribution, ascending by link —
  /// one quiesce + one pass instead of links() + a query per link.
  [[nodiscard]] std::vector<std::pair<LinkId, common::LatencySketch>> link_distributions();
  [[nodiscard]] common::LatencySketch fleet();
  /// Exact fleet-wide top-k: per-lane O(k) answers (ingest-maintained rank
  /// indexes) merged and re-truncated — the global top-k is always contained
  /// in the union of per-lane top-k's.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows(std::size_t k, double q = 0.99);
  /// top_k_flows with ranking values attached (what a higher tier or the
  /// transport query plane merges/ships), same O(k·lanes) path.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q);

  /// A plain (single-threaded) ShardedCollector holding a merged copy of the
  /// current state — the bridge to the serial query/merge/replica APIs and
  /// the equivalence oracle in tests.
  [[nodiscard]] ShardedCollector snapshot();

  // --- Accounting (quiesced, like the queries) -----------------------------

  [[nodiscard]] std::size_t flow_count();
  [[nodiscard]] std::uint64_t records_ingested();
  [[nodiscard]] std::uint64_t estimates_ingested();
  [[nodiscard]] std::size_t epoch_count();
  [[nodiscard]] std::vector<std::size_t> shard_flow_counts();
  /// Submissions that took the inline mutex path because their lane queue
  /// was full (queue-mode only; backpressure visibility).
  [[nodiscard]] std::uint64_t fallback_ingests() const;
  [[nodiscard]] bool threaded() const { return config_.queue_capacity > 0; }
  [[nodiscard]] const ConcurrentCollectorConfig& config() const { return config_; }

 private:
  // One shard's ingest machinery. queue_mu guards queue/pending/stop;
  // state_mu guards state. Lock order where both are needed: never nested —
  // the worker releases queue_mu before taking state_mu.
  struct Lane {
    std::mutex queue_mu;
    std::condition_variable queue_ready;   // worker wake-up
    std::condition_variable queue_drained; // quiesce wake-up
    std::deque<EstimateRecord> queue;
    /// Records enqueued but not yet merged into state (queue + in-flight
    /// worker batch). quiesce() waits for 0.
    std::size_t pending = 0;
    bool stop = false;

    std::mutex state_mu;
    ShardedCollector state;  // shard_count = 1

    std::thread worker;

    /// Queue-depth gauge (rlir_collect_lane_queue_depth{lane=...}); set
    /// under queue_mu wherever queue.size() changes.
    obs::Gauge* depth = nullptr;

    explicit Lane(const CollectorConfig& cfg) : state(cfg) {}
  };

  [[nodiscard]] Lane& lane_for(const net::FiveTuple& key) {
    return *lanes_[key.hash() % lanes_.size()];
  }
  void worker_loop(Lane& lane);
  void apply(Lane& lane, const EstimateRecord& record);
  /// Merges one record into `lane` (caller holds its state_mu) and adds the
  /// record's epoch to epochs_ when it is new to this lane.
  template <typename Record>
  void ingest_locked(Lane& lane, const Record& record);

  ConcurrentCollectorConfig config_;
  obs::Instrumented obs_;
  /// unique_ptr: Lane holds mutexes/condvars and is neither movable nor
  /// copyable, so the vector stores stable heap slots.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Registry cells: fallbacks replaces the old private atomic (same relaxed
  /// semantics, now scrapeable); submitted counts records entering submit().
  obs::Counter* fallbacks_ = nullptr;
  obs::Counter* submitted_ = nullptr;
  /// Every distinct epoch any lane has seen, so epoch_count() reads a size
  /// instead of gathering and deduplicating every lane's epochs per query.
  /// Touched only on a lane's first sight of an epoch (at most lanes x
  /// epochs times in total). epochs_mu_ is a leaf lock: taken under a
  /// lane's state_mu, never the other way round.
  std::mutex epochs_mu_;
  std::unordered_set<std::uint32_t> epochs_;
};

}  // namespace rlir::collect
