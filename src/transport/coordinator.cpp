#include "transport/coordinator.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace rlir::transport {

// --- Merge helpers ---------------------------------------------------------

common::LatencySketch merge_fleet_sketches(const std::vector<common::LatencySketch>& parts) {
  if (parts.empty()) return common::LatencySketch{};
  common::LatencySketch merged(parts.front().config());
  for (const auto& part : parts) merged.merge(part);
  return merged;
}

collect::FlowSummary summarize_flow(const net::FiveTuple& key,
                                    const common::LatencySketch& sketch) {
  collect::FlowSummary s;
  s.key = key;
  s.packets = sketch.count();
  s.mean_ns = sketch.mean();
  s.p50_ns = sketch.quantile(0.5);
  s.p99_ns = sketch.quantile(0.99);
  s.max_ns = sketch.max();
  return s;
}

std::vector<collect::RankedFlowSummary> merge_ranked_top_k(
    const std::vector<std::vector<collect::RankedFlowSummary>>& parts, std::size_t k,
    const FlowResolver& resolve) {
  // k is small and each part is at most k entries: gather-and-sort beats a
  // cursor heap in clarity at the same practical cost. Duplicates (one key
  // in several parts — partitions overlapped) are re-resolved exactly from
  // the merged flow sketch when a resolver is given.
  std::unordered_map<net::FiveTuple, collect::RankedFlowSummary> by_key;
  for (const auto& part : parts) {
    for (const auto& entry : part) {
      auto [it, inserted] = by_key.try_emplace(entry.second.key, entry);
      if (inserted) continue;
      if (resolve) {
        if (auto resolved = resolve(entry.second.key)) it->second = *resolved;
      } else if (collect::ranked_worse_first(entry, it->second)) {
        // No resolver: deterministic but approximate — keep the worse rank.
        it->second = entry;
      }
    }
  }
  std::vector<collect::RankedFlowSummary> merged;
  merged.reserve(by_key.size());
  for (auto& [key, entry] : by_key) merged.push_back(std::move(entry));
  std::sort(merged.begin(), merged.end(), collect::ranked_worse_first);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

AgentStats merge_agent_stats(const std::vector<AgentStats>& parts) {
  AgentStats total;
  for (const auto& part : parts) {
    for (const auto& field : kAgentStatsFields) {
      total.*(field.member) = saturating_add(total.*(field.member), part.*(field.member));
    }
  }
  return total;
}

obs::Scrape merge_scrapes(const std::vector<obs::Scrape>& parts) {
  obs::Scrape merged;
  std::vector<obs::MetricsSnapshot> snaps;
  snaps.reserve(parts.size());
  for (const auto& part : parts) {
    snaps.push_back(part.metrics);
    for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
      merged.events.counts[i] = saturating_add(merged.events.counts[i], part.events.counts[i]);
    }
    merged.events.dropped = saturating_add(merged.events.dropped, part.events.dropped);
  }
  merged.metrics = obs::merge_snapshots(snaps);
  return merged;
}

WindowInfo merge_window_info(const std::vector<std::optional<QueryReply>>& parts) {
  WindowInfo merged;
  bool all_complete = !parts.empty();
  for (const auto& part : parts) {
    if (!part.has_value()) {
      all_complete = false;  // a missed agent is unknown coverage: incomplete
      continue;
    }
    const WindowInfo& w = part->window;
    if (!w.complete) all_complete = false;
    if (!w.covered) continue;
    if (!merged.covered) {
      merged.covered = true;
      merged.first = w.first;
      merged.last = w.last;
    } else {
      merged.first = std::min(merged.first, w.first);
      merged.last = std::max(merged.last, w.last);
    }
    merged.records = saturating_add(merged.records, w.records);
  }
  merged.complete = merged.covered && all_complete;
  return merged;
}

// --- The coordinator -------------------------------------------------------

std::vector<obs::Span> AssembledTrace::sorted_spans() const {
  std::vector<obs::Span> all;
  all.reserve(size());
  for (const auto& [name, spans] : processes) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  std::sort(all.begin(), all.end(), [](const obs::Span& a, const obs::Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  });
  return all;
}

std::size_t AssembledTrace::size() const {
  std::size_t n = 0;
  for (const auto& [name, spans] : processes) n += spans.size();
  return n;
}

QueryCoordinator::QueryCoordinator(QueryCoordinatorConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.reply_rounds == 0) {
    throw std::invalid_argument("QueryCoordinator: zero reply_rounds");
  }
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.queries_sent = r.counter("rlir_coord_queries_sent_total", base);
  c_.replies_merged = r.counter("rlir_coord_replies_merged_total", base);
  c_.agent_failures = r.counter("rlir_coord_agent_failures_total", base);
  spans_ = obs_.spans();
  if (spans_ != nullptr) spans_->bind_metrics(&r, base);
}

std::size_t QueryCoordinator::add_agent(StreamFactory factory) {
  // Agent-facing clients share the coordinator's registry/trace under child
  // ids, so the coordinator's own scrape shows per-agent-link health.
  CollectorClientConfig cfg = config_.client;
  cfg.instruments = obs_.child("agent" + std::to_string(clients_.size()));
  clients_.push_back(std::make_unique<CollectorClient>(cfg, std::move(factory)));
  return clients_.size() - 1;
}

void QueryCoordinator::set_drive(std::function<void()> drive) { drive_ = std::move(drive); }

std::size_t QueryCoordinator::connected_count() const {
  std::size_t n = 0;
  for (const auto& client : clients_) n += client->connected() ? 1 : 0;
  return n;
}

CollectorClient& QueryCoordinator::client(std::size_t agent) { return *clients_.at(agent); }

std::optional<QueryReply> QueryCoordinator::ask(std::size_t agent, const Query& query) {
  CollectorClient& c = *clients_[agent];
  c_.queries_sent->increment();
  c.send_query(query);
  // Driven: one drive per round. Otherwise each round waits on the reply
  // socket, and the rounds become a deadline (see reply_deadline).
  const auto deadline = CollectorClient::reply_deadline(config_.reply_rounds);
  for (std::size_t round = 1;; ++round) {
    c.pump();
    if (drive_) drive_();
    std::optional<QueryReply> reply;
    try {
      reply = c.poll_reply();
    } catch (const std::runtime_error&) {
      // Corrupt/unexpected reply bytes: poll_reply already dropped the
      // connection (reconnect machinery takes over); this fan-out misses
      // the agent. Abandon so the next fan-out can send a fresh query.
      c.abandon_query();
      c_.agent_failures->increment();
      return std::nullopt;
    }
    if (reply.has_value()) {
      c_.replies_merged->increment();
      return reply;
    }
    if (!c.query_outstanding()) {
      // The connection died under the query; the client discarded it.
      c_.agent_failures->increment();
      return std::nullopt;
    }
    if (drive_ ? round >= config_.reply_rounds : !c.wait_reply(deadline)) break;
  }
  // Reply never came: abandon (drops the connection so a late reply can't
  // mis-pair with the next fan-out's query) and report the miss.
  c.abandon_query();
  c_.agent_failures->increment();
  return std::nullopt;
}

std::vector<std::optional<QueryReply>> QueryCoordinator::fan_out(const Query& query) {
  // Sequential fan-out: queries are tiny and agents answer in one poll, so
  // pipelining across connections would buy little and cost the
  // one-outstanding-query simplicity.
  std::vector<std::optional<QueryReply>> replies;
  replies.reserve(clients_.size());
  if (spans_ == nullptr || query.kind == QueryKind::kTraceSpans) {
    // Untraced, or the meta-query (pulling a trace must not pollute it).
    for (std::size_t i = 0; i < clients_.size(); ++i) replies.push_back(ask(i, query));
    return replies;
  }
  // One merge span roots the fan-out; each agent gets a leg span whose
  // context rides the query (the client hop re-parents beneath it, the
  // agent's answer span beneath that).
  obs::Span merge;
  merge.trace_id = query.trace.valid() ? query.trace.trace_id : spans_->new_trace_id();
  merge.span_id = spans_->next_span_id();
  merge.parent_id = query.trace.span_id;
  merge.kind = obs::SpanKind::kCoordMerge;
  merge.start_ns = obs::SpanRecorder::now_ns();
  merge.label = query_kind_name(query.kind);
  last_trace_id_ = merge.trace_id;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    obs::Span leg;
    leg.trace_id = merge.trace_id;
    leg.span_id = spans_->next_span_id();
    leg.parent_id = merge.span_id;
    leg.kind = obs::SpanKind::kCoordLeg;
    leg.start_ns = obs::SpanRecorder::now_ns();
    leg.label = "agent" + std::to_string(i);
    Query traced = query;
    traced.trace = obs::TraceContext{leg.trace_id, leg.span_id};
    replies.push_back(ask(i, traced));
    leg.end_ns = obs::SpanRecorder::now_ns();
    if (!replies.back().has_value()) leg.label += " miss";
    spans_->record(std::move(leg));
  }
  merge.end_ns = obs::SpanRecorder::now_ns();
  spans_->record(std::move(merge));
  return replies;
}

AssembledTrace QueryCoordinator::collect_trace(std::uint64_t trace_id) {
  if (trace_id == 0) trace_id = last_trace_id_;
  AssembledTrace out;
  out.trace_id = trace_id;
  Query q;
  q.kind = QueryKind::kTraceSpans;
  if (trace_id != 0) q.trace = obs::TraceContext{trace_id, 0};
  auto replies = fan_out(q);
  // The coordinator's own ring holds the trace's merge, leg, and client-hop
  // spans (clients share this recorder). The pull above added nothing to it:
  // kTraceSpans is untraced end to end.
  if (spans_ != nullptr) {
    out.processes.emplace_back(
        "coordinator", trace_id != 0 ? spans_->for_trace(trace_id) : spans_->snapshot().spans);
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value()) continue;
    out.agents_answered += 1;
    out.spans_dropped = saturating_add(out.spans_dropped, replies[i]->spans_dropped);
    out.processes.emplace_back("agent" + std::to_string(i), std::move(replies[i]->spans));
  }
  return out;
}

common::LatencySketch QueryCoordinator::fleet() {
  Query q;
  q.kind = QueryKind::kFleet;
  std::vector<common::LatencySketch> parts;
  for (auto& reply : fan_out(q)) {
    if (reply.has_value()) parts.push_back(std::move(reply->fleet));
  }
  return merge_fleet_sketches(parts);
}

std::vector<collect::RankedFlowSummary> QueryCoordinator::top_k_ranked(std::size_t k,
                                                                       double q) {
  Query query;
  query.kind = QueryKind::kTopK;
  query.k = static_cast<std::uint32_t>(std::min<std::size_t>(k, ~std::uint32_t{0}));
  query.q = q;
  std::vector<std::vector<collect::RankedFlowSummary>> parts;
  for (auto& reply : fan_out(query)) {
    if (reply.has_value()) parts.push_back(std::move(reply->top));
  }
  // Duplicates (a flow with records on several agents) are resolved from
  // the flow's exact merged sketch — never double-counted.
  return merge_ranked_top_k(parts, k,
                            [this, q](const net::FiveTuple& key)
                                -> std::optional<collect::RankedFlowSummary> {
                              auto sketch = flow_sketch(key);
                              if (!sketch.has_value()) return std::nullopt;
                              return collect::RankedFlowSummary{sketch->quantile(q),
                                                                summarize_flow(key, *sketch)};
                            });
}

std::vector<collect::FlowSummary> QueryCoordinator::top_k_flows(std::size_t k, double q) {
  return collect::strip_ranks(top_k_ranked(k, q));
}

std::optional<common::LatencySketch> QueryCoordinator::flow_sketch(
    const net::FiveTuple& key) {
  Query q;
  q.kind = QueryKind::kFlowSketch;
  q.key = key;
  std::vector<common::LatencySketch> parts;
  for (auto& reply : fan_out(q)) {
    if (reply.has_value() && reply->flow_sketch.has_value()) {
      parts.push_back(std::move(*reply->flow_sketch));
    }
  }
  if (parts.empty()) return std::nullopt;
  return merge_fleet_sketches(parts);
}

std::optional<double> QueryCoordinator::flow_quantile(const net::FiveTuple& key, double q) {
  const auto sketch = flow_sketch(key);
  if (!sketch.has_value()) return std::nullopt;
  return sketch->quantile(q);
}

std::vector<std::pair<collect::LinkId, common::LatencySketch>>
QueryCoordinator::link_distributions() {
  Query q;
  q.kind = QueryKind::kLinks;
  std::map<collect::LinkId, common::LatencySketch> merged;
  for (auto& reply : fan_out(q)) {
    if (!reply.has_value()) continue;
    for (auto& [link, sketch] : reply->links) {
      auto [it, inserted] = merged.try_emplace(link, sketch.config());
      it->second.merge(sketch);
    }
  }
  return {merged.begin(), merged.end()};
}

namespace {

/// Shared tail of every window fan-out: coverage union + exact sketch merge
/// (empty sketches skipped — they carry no bins and merging one whose
/// accuracy differs would throw where ignoring it is exact).
[[nodiscard]] WindowResult merge_window_replies(
    const std::vector<std::optional<QueryReply>>& replies) {
  WindowResult out;
  out.window = merge_window_info(replies);
  std::vector<common::LatencySketch> parts;
  for (const auto& reply : replies) {
    if (!reply.has_value() || !reply->window_sketch.has_value()) continue;
    if (reply->window_sketch->empty()) continue;
    parts.push_back(*reply->window_sketch);
  }
  if (!parts.empty()) out.sketch = merge_fleet_sketches(parts);
  return out;
}

}  // namespace

WindowResult QueryCoordinator::window_fleet(std::uint32_t epoch_first,
                                            std::uint32_t epoch_last) {
  if (epoch_first > epoch_last) std::swap(epoch_first, epoch_last);
  Query q;
  q.kind = QueryKind::kWindowFleet;
  q.epoch_first = epoch_first;
  q.epoch_last = epoch_last;
  return merge_window_replies(fan_out(q));
}

WindowResult QueryCoordinator::window_link(collect::LinkId link, std::uint32_t epoch_first,
                                           std::uint32_t epoch_last) {
  if (epoch_first > epoch_last) std::swap(epoch_first, epoch_last);
  Query q;
  q.kind = QueryKind::kWindowLink;
  q.k = link;
  q.epoch_first = epoch_first;
  q.epoch_last = epoch_last;
  return merge_window_replies(fan_out(q));
}

WindowResult QueryCoordinator::window_flow_sketch(const net::FiveTuple& key,
                                                  std::uint32_t epoch_first,
                                                  std::uint32_t epoch_last) {
  if (epoch_first > epoch_last) std::swap(epoch_first, epoch_last);
  Query q;
  q.kind = QueryKind::kWindowFlowQuantile;
  q.key = key;
  q.epoch_first = epoch_first;
  q.epoch_last = epoch_last;
  return merge_window_replies(fan_out(q));
}

std::optional<double> QueryCoordinator::window_flow_quantile(const net::FiveTuple& key,
                                                             double q,
                                                             std::uint32_t epoch_first,
                                                             std::uint32_t epoch_last,
                                                             WindowInfo* window) {
  const auto result = window_flow_sketch(key, epoch_first, epoch_last);
  if (window != nullptr) *window = result.window;
  if (!result.sketch.has_value()) return std::nullopt;
  return result.sketch->quantile(q);
}

std::vector<std::optional<AgentStats>> QueryCoordinator::per_agent_stats() {
  Query q;
  q.kind = QueryKind::kStats;
  std::vector<std::optional<AgentStats>> stats;
  for (auto& reply : fan_out(q)) {
    if (reply.has_value()) {
      stats.push_back(reply->stats);
    } else {
      stats.push_back(std::nullopt);
    }
  }
  return stats;
}

AgentStats QueryCoordinator::fleet_stats() {
  std::vector<AgentStats> parts;
  for (const auto& stats : per_agent_stats()) {
    if (stats.has_value()) parts.push_back(*stats);
  }
  return merge_agent_stats(parts);
}

std::vector<std::optional<obs::Scrape>> QueryCoordinator::per_agent_scrapes() {
  Query q;
  q.kind = QueryKind::kMetrics;
  std::vector<std::optional<obs::Scrape>> scrapes;
  for (auto& reply : fan_out(q)) {
    if (reply.has_value()) {
      scrapes.push_back(std::move(reply->scrape));
    } else {
      scrapes.push_back(std::nullopt);
    }
  }
  return scrapes;
}

obs::Scrape QueryCoordinator::fleet_metrics() {
  std::vector<obs::Scrape> parts;
  for (auto& scrape : per_agent_scrapes()) {
    if (scrape.has_value()) parts.push_back(std::move(*scrape));
  }
  return merge_scrapes(parts);
}

QueryCoordinator::Stats QueryCoordinator::stats() const {
  Stats s;
  s.queries_sent = c_.queries_sent->value();
  s.replies_merged = c_.replies_merged->value();
  s.agent_failures = c_.agent_failures->value();
  return s;
}

}  // namespace rlir::transport
