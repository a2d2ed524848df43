#include "collect/concurrent_collector.h"

#include <stdexcept>

namespace rlir::collect {

void ConcurrentShardedCollector::submit_views(const std::vector<RecordView>& batch) {
  // Validate before locking: a mismatched record must not leave half its
  // batch merged.
  for (const auto& record : batch) {
    if (record.sketch.relative_accuracy != config().sketch.relative_accuracy) {
      throw std::invalid_argument(
          "ConcurrentShardedCollector::submit_views: record sketch accuracy differs from config");
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& record : batch) state_.ingest(record);
}

void ConcurrentShardedCollector::set_history(SketchHistoryStore* history) {
  const std::lock_guard<std::mutex> lock(mu_);
  state_.set_history(history);
}

std::optional<double> ConcurrentShardedCollector::flow_quantile(const net::FiveTuple& key,
                                                                double q) {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.flow_quantile(key, q);
}

std::optional<FlowSummary> ConcurrentShardedCollector::flow_summary(const net::FiveTuple& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.flow_summary(key);
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::flow_sketch(
    const net::FiveTuple& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto* sketch = state_.flow(key);
  if (sketch == nullptr) return std::nullopt;
  return *sketch;
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::link_distribution(LinkId link) {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.link_distribution(link);
}

std::vector<LinkId> ConcurrentShardedCollector::links() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.links();
}

std::vector<std::pair<LinkId, common::LatencySketch>>
ConcurrentShardedCollector::link_distributions() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<LinkId, common::LatencySketch>> out;
  for (const auto link : state_.links()) out.emplace_back(link, *state_.link_distribution(link));
  return out;
}

common::LatencySketch ConcurrentShardedCollector::fleet() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.fleet();
}

std::vector<RankedFlowSummary> ConcurrentShardedCollector::top_k_ranked(std::size_t k,
                                                                        double q) {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.top_k_ranked(k, q);
}

ShardedCollector ConcurrentShardedCollector::snapshot() {
  ShardedCollector merged(config());
  const std::lock_guard<std::mutex> lock(mu_);
  merged.merge(state_);
  return merged;
}

std::size_t ConcurrentShardedCollector::flow_count() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.flow_count();
}

std::uint64_t ConcurrentShardedCollector::records_ingested() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.records_ingested();
}

std::uint64_t ConcurrentShardedCollector::estimates_ingested() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.estimates_ingested();
}

std::size_t ConcurrentShardedCollector::epoch_count() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.epoch_count();
}

std::vector<std::size_t> ConcurrentShardedCollector::shard_flow_counts() {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.shard_flow_counts();
}

}  // namespace rlir::collect
