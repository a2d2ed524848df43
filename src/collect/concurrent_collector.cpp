#include "collect/concurrent_collector.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace rlir::collect {

namespace {

CollectorConfig lane_config(const ConcurrentCollectorConfig& config) {
  CollectorConfig cfg;
  cfg.shard_count = 1;  // the lane IS the shard; fan-out lives up here
  cfg.sketch = config.sketch;
  cfg.top_k_quantile = config.top_k_quantile;
  return cfg;
}

}  // namespace

ConcurrentShardedCollector::ConcurrentShardedCollector(ConcurrentCollectorConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ConcurrentShardedCollector: shard_count must be >= 1");
  }
  auto& r = obs_.registry();
  fallbacks_ = r.counter("rlir_collect_fallback_ingests_total", obs_.labels());
  submitted_ = r.counter("rlir_collect_records_submitted_total", obs_.labels());
  // top_k_quantile is validated by the lane ShardedCollector constructors.
  lanes_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    lanes_.push_back(std::make_unique<Lane>(lane_config(config_)));
    lanes_.back()->depth =
        r.gauge("rlir_collect_lane_queue_depth", obs_.labels_with("lane", std::to_string(i)));
  }
  if (threaded()) {
    for (auto& lane : lanes_) {
      lane->worker = std::thread([this, lane = lane.get()] { worker_loop(*lane); });
    }
  }
}

ConcurrentShardedCollector::~ConcurrentShardedCollector() {
  if (!threaded()) return;
  for (auto& lane : lanes_) {
    {
      const std::lock_guard<std::mutex> lock(lane->queue_mu);
      lane->stop = true;
    }
    lane->queue_ready.notify_all();
  }
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
}

template <typename Record>
void ConcurrentShardedCollector::ingest_locked(Lane& lane, const Record& record) {
  const std::size_t lane_epochs = lane.state.epoch_count();
  lane.state.ingest(record);
  if (lane.state.epoch_count() != lane_epochs) {
    const std::lock_guard<std::mutex> lock(epochs_mu_);
    epochs_.insert(record.epoch);
  }
}

void ConcurrentShardedCollector::apply(Lane& lane, const EstimateRecord& record) {
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  ingest_locked(lane, record);
}

void ConcurrentShardedCollector::submit(EstimateRecord record) {
  // Validate on the submitting thread so the throw lands where the bug is;
  // workers then merge unconditionally.
  if (record.sketch.config().relative_accuracy != config_.sketch.relative_accuracy) {
    throw std::invalid_argument(
        "ConcurrentShardedCollector::submit: record sketch accuracy differs from config");
  }
  submitted_->increment();
  Lane& lane = lane_for(record.key);
  if (threaded()) {
    {
      std::unique_lock<std::mutex> lock(lane.queue_mu);
      if (lane.queue.size() < config_.queue_capacity) {
        lane.queue.push_back(std::move(record));
        ++lane.pending;
        lane.depth->set(static_cast<std::int64_t>(lane.queue.size()));
        lock.unlock();
        lane.queue_ready.notify_one();
        return;
      }
    }
    // Queue full: backpressure resolves on the submitting thread, which pays
    // for the merge itself instead of blocking the other producers. Ordering
    // vs still-queued records is irrelevant — merge is commutative and exact.
    fallbacks_->increment();
  }
  apply(lane, record);
}

void ConcurrentShardedCollector::submit(std::vector<EstimateRecord> batch) {
  for (const auto& record : batch) {
    if (record.sketch.config().relative_accuracy != config_.sketch.relative_accuracy) {
      throw std::invalid_argument(
          "ConcurrentShardedCollector::submit: record sketch accuracy differs from config");
    }
  }
  submitted_->add(batch.size());
  if (!threaded()) {
    for (auto& record : batch) apply(lane_for(record.key), record);
    return;
  }
  std::vector<std::vector<EstimateRecord>> per_lane(lanes_.size());
  for (auto& record : batch) {
    per_lane[record.key.hash() % lanes_.size()].push_back(std::move(record));
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    auto& chunk = per_lane[i];
    if (chunk.empty()) continue;
    Lane& lane = *lanes_[i];
    std::size_t accepted = 0;
    {
      const std::lock_guard<std::mutex> lock(lane.queue_mu);
      // One critical section admits as much of the chunk as fits.
      while (accepted < chunk.size() && lane.queue.size() < config_.queue_capacity) {
        lane.queue.push_back(std::move(chunk[accepted]));
        ++accepted;
      }
      lane.pending += accepted;
      lane.depth->set(static_cast<std::int64_t>(lane.queue.size()));
    }
    if (accepted > 0) lane.queue_ready.notify_one();
    if (accepted < chunk.size()) {
      // Overflow spills to the inline path in one state-lock session.
      fallbacks_->add(chunk.size() - accepted);
      const std::lock_guard<std::mutex> state_lock(lane.state_mu);
      for (std::size_t r = accepted; r < chunk.size(); ++r) ingest_locked(lane, chunk[r]);
    }
  }
}

void ConcurrentShardedCollector::submit_views(const std::vector<RecordView>& batch) {
  for (const auto& record : batch) {
    if (record.sketch.relative_accuracy != config_.sketch.relative_accuracy) {
      throw std::invalid_argument(
          "ConcurrentShardedCollector::submit: record sketch accuracy differs from config");
    }
  }
  if (batch.empty()) return;
  submitted_->add(batch.size());
  // Inline application, holding each record's lane lock only while merging
  // it; consecutive same-lane records reuse the held lock. This is the
  // queue-full fallback path generalized: correct under concurrency because
  // merge is exact and commutative, synchronous because views borrow the
  // caller's buffer.
  std::unique_lock<std::mutex> lock;
  std::size_t locked_lane = lanes_.size();  // sentinel: nothing locked yet
  for (const auto& record : batch) {
    const std::size_t l = record.key.hash() % lanes_.size();
    if (l != locked_lane) {
      // Release before acquiring: two callers must never each hold a lane
      // lock while waiting on the other's.
      if (lock.owns_lock()) lock.unlock();
      lock = std::unique_lock<std::mutex>(lanes_[l]->state_mu);
      locked_lane = l;
    }
    ingest_locked(*lanes_[l], record);
  }
}

void ConcurrentShardedCollector::worker_loop(Lane& lane) {
  std::vector<EstimateRecord> local;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(lane.queue_mu);
      lane.queue_ready.wait(lock, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) return;  // stop requested and fully drained
      // Batch-drain: one queue critical section per wake-up, merges applied
      // outside it so producers are never blocked behind sketch work.
      local.assign(std::make_move_iterator(lane.queue.begin()),
                   std::make_move_iterator(lane.queue.end()));
      lane.queue.clear();
      lane.depth->set(0);
    }
    {
      const std::lock_guard<std::mutex> state_lock(lane.state_mu);
      for (const auto& record : local) ingest_locked(lane, record);
    }
    {
      const std::lock_guard<std::mutex> lock(lane.queue_mu);
      lane.pending -= local.size();
      if (lane.pending == 0) lane.queue_drained.notify_all();
    }
    local.clear();
  }
}

void ConcurrentShardedCollector::quiesce() {
  if (!threaded()) return;  // queueless submits complete synchronously
  for (auto& lane : lanes_) {
    std::unique_lock<std::mutex> lock(lane->queue_mu);
    lane->queue_drained.wait(lock, [&] { return lane->pending == 0; });
  }
}

void ConcurrentShardedCollector::set_history(SketchHistoryStore* history) {
  quiesce();
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    lane->state.set_history(history);
  }
}

SketchHistoryStore* ConcurrentShardedCollector::history() {
  const std::lock_guard<std::mutex> lock(lanes_.front()->state_mu);
  return lanes_.front()->state.history();
}

std::optional<double> ConcurrentShardedCollector::flow_quantile(const net::FiveTuple& key,
                                                                double q) {
  quiesce();
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  return lane.state.flow_quantile(key, q);
}

std::optional<FlowSummary> ConcurrentShardedCollector::flow_summary(const net::FiveTuple& key) {
  quiesce();
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  return lane.state.flow_summary(key);
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::flow_sketch(
    const net::FiveTuple& key) {
  quiesce();
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  const auto* sketch = lane.state.flow(key);
  if (sketch == nullptr) return std::nullopt;
  return *sketch;
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::link_distribution(LinkId link) {
  quiesce();
  common::LatencySketch merged(config_.sketch);
  bool seen = false;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    if (auto dist = lane->state.link_distribution(link)) {
      merged.merge(*dist);
      seen = true;
    }
  }
  if (!seen) return std::nullopt;
  return merged;
}

std::vector<LinkId> ConcurrentShardedCollector::links() {
  quiesce();
  std::vector<LinkId> ids;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    const auto lane_ids = lane->state.links();
    ids.insert(ids.end(), lane_ids.begin(), lane_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::pair<LinkId, common::LatencySketch>>
ConcurrentShardedCollector::link_distributions() {
  quiesce();
  std::map<LinkId, common::LatencySketch> merged;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    for (const auto link : lane->state.links()) {
      const auto dist = lane->state.link_distribution(link);
      auto [it, inserted] = merged.try_emplace(link, config_.sketch);
      it->second.merge(*dist);
    }
  }
  return {merged.begin(), merged.end()};
}

common::LatencySketch ConcurrentShardedCollector::fleet() {
  quiesce();
  common::LatencySketch all(config_.sketch);
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    all.merge(lane->state.fleet());
  }
  return all;
}

std::vector<RankedFlowSummary> ConcurrentShardedCollector::top_k_ranked(std::size_t k,
                                                                        double q) {
  quiesce();
  std::vector<RankedFlowSummary> ranked;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    auto lane_top = lane->state.top_k_ranked(k, q);
    ranked.insert(ranked.end(), std::make_move_iterator(lane_top.begin()),
                  std::make_move_iterator(lane_top.end()));
  }
  // Global top-k is contained in the union of per-lane top-k's; re-rank with
  // the shared ordering contract and truncate.
  std::sort(ranked.begin(), ranked.end(), ranked_worse_first);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::vector<FlowSummary> ConcurrentShardedCollector::top_k_flows(std::size_t k, double q) {
  return strip_ranks(top_k_ranked(k, q));
}

ShardedCollector ConcurrentShardedCollector::snapshot() {
  quiesce();
  CollectorConfig cfg;
  cfg.shard_count = config_.shard_count;
  cfg.sketch = config_.sketch;
  cfg.top_k_quantile = config_.top_k_quantile;
  ShardedCollector merged(cfg);
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    merged.merge(lane->state);
  }
  return merged;
}

std::size_t ConcurrentShardedCollector::flow_count() {
  quiesce();
  std::size_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.flow_count();
  }
  return n;
}

std::uint64_t ConcurrentShardedCollector::records_ingested() {
  quiesce();
  std::uint64_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.records_ingested();
  }
  return n;
}

std::uint64_t ConcurrentShardedCollector::estimates_ingested() {
  quiesce();
  std::uint64_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.estimates_ingested();
  }
  return n;
}

std::size_t ConcurrentShardedCollector::epoch_count() {
  quiesce();
  const std::lock_guard<std::mutex> lock(epochs_mu_);
  return epochs_.size();
}

std::vector<std::size_t> ConcurrentShardedCollector::shard_flow_counts() {
  quiesce();
  std::vector<std::size_t> counts;
  counts.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    counts.push_back(lane->state.flow_count());
  }
  return counts;
}

std::uint64_t ConcurrentShardedCollector::fallback_ingests() const {
  return fallbacks_->value();
}

}  // namespace rlir::collect
