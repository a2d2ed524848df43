// SketchHistoryStore: the time-travel store's exactness and boundedness
// contracts.
//
//   * Property (seeded): for ANY window, the store's answer equals a direct
//     merge of the covered epochs' records — bin for bin — no matter which
//     tier (raw log, mid, coarse) the epochs landed in. The reference model
//     keeps every record in a plain per-epoch vector and merges on demand.
//   * Boundedness: >= 1000 epochs of ingest stay under max_bytes, with the
//     rlir_history_* gauges agreeing with the accessors.
//   * Edge cases: empty store, idle epochs, single-epoch windows, reversed
//     windows, evicted/future windows, late records, backward growth,
//     accuracy mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/history.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace rlir::collect {
namespace {

net::FiveTuple flow_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 1);
  key.src_port = static_cast<std::uint16_t>(4000 + i);
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

EstimateRecord make_record(std::uint32_t epoch, std::uint32_t flow, LinkId link,
                           common::Xoshiro256& rng) {
  EstimateRecord r;
  r.key = flow_key(flow);
  r.link = link;
  r.epoch = epoch;
  r.sender = 1;
  const int samples = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
  for (int s = 0; s < samples; ++s) r.sketch.add(30e3 * rng.uniform(0.5, 4.0));
  return r;
}

/// The reference model: every record, kept verbatim per epoch.
using EpochRecords = std::map<std::uint32_t, std::vector<EstimateRecord>>;

/// Direct merge over [first, last] of records matching `pred` — the ground
/// truth any window query is compared against.
template <typename Pred>
common::LatencySketch direct_merge(const EpochRecords& model, std::uint32_t first,
                                   std::uint32_t last, Pred&& pred) {
  common::LatencySketch out{common::LatencySketchConfig{}};
  for (auto it = model.lower_bound(first); it != model.end() && it->first <= last; ++it) {
    for (const auto& r : it->second) {
      if (pred(r)) out.merge(r.sketch);
    }
  }
  return out;
}

std::uint64_t direct_records(const EpochRecords& model, std::uint32_t first,
                             std::uint32_t last) {
  std::uint64_t n = 0;
  for (auto it = model.lower_bound(first); it != model.end() && it->first <= last; ++it) {
    n += it->second.size();
  }
  return n;
}

TEST(HistoryStoreTest, EmptyStoreAnswersNothing) {
  SketchHistoryStore store;
  WindowCoverage cov;
  EXPECT_FALSE(store.window_flow(0, 10, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);
  EXPECT_FALSE(cov.complete);
  EXPECT_TRUE(store.window_fleet(0, 10).empty());
  EXPECT_TRUE(store.window_flows(0, 10).empty());
  EXPECT_TRUE(store.window_links(0, 10).empty());
  EXPECT_EQ(store.epochs_retained(), 0u);
  EXPECT_FALSE(store.first_retained_epoch().has_value());
  EXPECT_FALSE(store.last_epoch().has_value());
}

TEST(HistoryStoreTest, BadConfigsThrow) {
  const auto expect_throws = [](HistoryConfig cfg) {
    EXPECT_THROW(SketchHistoryStore{cfg}, std::invalid_argument);
  };
  HistoryConfig cfg;
  cfg.raw_epochs = 0;
  expect_throws(cfg);
  cfg = {};
  cfg.mid_window = 0;
  expect_throws(cfg);
  cfg = {};
  cfg.coarse_window = 12;  // not a multiple of mid_window = 8
  expect_throws(cfg);
  cfg = {};
  cfg.mid_segments = 0;
  expect_throws(cfg);
  cfg = {};
  cfg.max_epoch_jump = 0;
  expect_throws(cfg);
}

TEST(HistoryStoreTest, AccuracyMismatchThrows) {
  SketchHistoryStore store;
  EstimateRecord r;
  r.key = flow_key(0);
  common::LatencySketchConfig other;
  other.relative_accuracy = 0.05;
  r.sketch = common::LatencySketch(other);
  EXPECT_THROW(store.ingest(r), std::invalid_argument);
}

// The tentpole property: window query == direct merge of the covered
// epochs' records, across all three tiers. retained_max_bins stays 0 (the
// producer budget), so even compacted answers must be bin-for-bin exact.
TEST(HistoryStoreTest, WindowEqualsDirectMergeAcrossTiers) {
  HistoryConfig cfg;
  cfg.raw_epochs = 4;
  cfg.mid_window = 2;
  cfg.mid_segments = 3;
  cfg.coarse_window = 4;
  cfg.coarse_segments = 4;
  SketchHistoryStore store(cfg);

  constexpr std::uint32_t kEpochs = 40;
  constexpr std::uint32_t kFlows = 12;
  constexpr LinkId kLinks = 3;
  common::Xoshiro256 rng(20110328);  // seeded: identical records every run

  EpochRecords model;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch % 7 == 3) {
      store.note_epoch(epoch);  // idle epoch: sealed, no records
      model[epoch];
      continue;
    }
    const int count = 2 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int i = 0; i < count; ++i) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform(0.0, kFlows));
      const auto link = static_cast<LinkId>(rng.uniform(0.0, kLinks));
      auto r = make_record(epoch, flow, link, rng);
      model[epoch].push_back(r);
      store.ingest(r);
    }
  }
  ASSERT_EQ(store.records_ingested(), direct_records(model, 0, kEpochs));
  ASSERT_GT(store.compactions(), 0u) << "workload never exercised compaction";

  // Windows crossing every tier boundary, plus a seeded random sweep.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> windows = {
      {kEpochs - 1, kEpochs - 1},  // newest raw epoch alone
      {kEpochs - 4, kEpochs - 1},  // fully raw
      {kEpochs - 8, kEpochs - 2},  // raw + mid straddle
      {0, kEpochs - 1},            // everything
      {0, 0},                      // oldest (coarse) alone
      {2, 17},                     // coarse + mid straddle
      {3, 3},                      // idle epoch inside a compacted segment
  };
  for (int i = 0; i < 40; ++i) {
    auto a = static_cast<std::uint32_t>(rng.uniform(0.0, kEpochs));
    auto b = static_cast<std::uint32_t>(rng.uniform(0.0, kEpochs));
    windows.emplace_back(a, b);  // reversed windows included on purpose
  }

  const std::uint32_t oldest = *store.first_retained_epoch();
  const std::uint32_t newest = *store.last_epoch();
  ASSERT_GT(oldest, 0u) << "workload never evicted — tiers too large for the sweep";
  for (const auto& [w_first, w_last] : windows) {
    const std::uint32_t lo = std::min(w_first, w_last);
    const std::uint32_t hi = std::max(w_first, w_last);

    WindowCoverage cov;
    const auto fleet = store.window_fleet(w_first, w_last, &cov);
    ASSERT_EQ(cov.covered, hi >= oldest && lo <= newest) << "[" << lo << ", " << hi << "]";
    if (!cov.covered) {
      EXPECT_TRUE(fleet.empty());
      continue;
    }
    // Coverage snaps OUTWARD at compacted edges: it must contain the whole
    // retained part of the request, never lose any of it.
    EXPECT_LE(cov.covered_first, std::max(lo, oldest));
    EXPECT_GE(cov.covered_last, std::min(hi, newest));
    EXPECT_EQ(cov.records, direct_records(model, cov.covered_first, cov.covered_last));
    EXPECT_EQ(cov.complete, lo >= oldest && hi <= newest);

    // Fleet union == direct merge of every record in the covered range.
    const auto want_fleet = direct_merge(model, cov.covered_first, cov.covered_last,
                                         [](const EstimateRecord&) { return true; });
    EXPECT_EQ(fleet.bins(), want_fleet.bins()) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(fleet.count(), want_fleet.count());

    // Per-flow and per-link answers, same contract.
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      const auto key = flow_key(flow);
      const auto got = store.window_flow(w_first, w_last, key);
      const auto want = direct_merge(model, cov.covered_first, cov.covered_last,
                                     [&](const EstimateRecord& r) { return r.key == key; });
      ASSERT_EQ(got.has_value(), !want.empty()) << "flow " << flow;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << "flow " << flow;
        EXPECT_EQ(got->count(), want.count()) << "flow " << flow;
        const auto q = store.window_flow_quantile(w_first, w_last, key, 0.99);
        ASSERT_TRUE(q.has_value());
        EXPECT_DOUBLE_EQ(*q, want.quantile(0.99));
      }
    }
    for (LinkId link = 0; link < kLinks; ++link) {
      const auto got = store.window_link(w_first, w_last, link);
      const auto want = direct_merge(model, cov.covered_first, cov.covered_last,
                                     [&](const EstimateRecord& r) { return r.link == link; });
      ASSERT_EQ(got.has_value(), !want.empty()) << "link " << link;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << "link " << link;
      }
    }
  }

  // Enumerations match the model over a tier-straddling window.
  WindowCoverage cov;
  (void)store.window_fleet(2, kEpochs - 2, &cov);
  std::vector<net::FiveTuple> want_flows;
  std::vector<LinkId> want_links;
  for (auto it = model.lower_bound(cov.covered_first);
       it != model.end() && it->first <= cov.covered_last; ++it) {
    for (const auto& r : it->second) {
      want_flows.push_back(r.key);
      want_links.push_back(r.link);
    }
  }
  std::sort(want_flows.begin(), want_flows.end());
  want_flows.erase(std::unique(want_flows.begin(), want_flows.end()), want_flows.end());
  std::sort(want_links.begin(), want_links.end());
  want_links.erase(std::unique(want_links.begin(), want_links.end()), want_links.end());
  EXPECT_EQ(store.window_flows(2, kEpochs - 2), want_flows);
  const auto got_links = store.window_links(2, kEpochs - 2);
  ASSERT_EQ(got_links.size(), want_links.size());
  for (std::size_t i = 0; i < want_links.size(); ++i) {
    EXPECT_EQ(got_links[i].first, want_links[i]);
  }
}

TEST(HistoryStoreTest, EvictedAndFutureWindowsAreUncovered) {
  HistoryConfig cfg;
  cfg.raw_epochs = 2;
  cfg.mid_window = 2;
  cfg.mid_segments = 1;
  cfg.coarse_window = 2;
  cfg.coarse_segments = 1;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(7);
  for (std::uint32_t epoch = 0; epoch < 30; ++epoch) {
    store.ingest(make_record(epoch, 0, 0, rng));
  }
  ASSERT_GT(store.evictions(), 0u);
  const auto oldest = *store.first_retained_epoch();
  ASSERT_GT(oldest, 0u);

  WindowCoverage cov;
  EXPECT_FALSE(store.window_flow(0, oldest - 1, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);
  EXPECT_FALSE(store.window_flow(100, 200, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);

  // A request overlapping the retained range answers it, honestly partial.
  const auto got = store.window_flow(0, 29, flow_key(0), &cov);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(cov.covered);
  EXPECT_FALSE(cov.complete);
  EXPECT_GE(cov.covered_first, oldest);
}

TEST(HistoryStoreTest, LateRecordsMergeIntoCompactedSegments) {
  HistoryConfig cfg;
  cfg.raw_epochs = 2;
  cfg.mid_window = 4;
  cfg.mid_segments = 4;
  cfg.coarse_window = 8;
  cfg.coarse_segments = 4;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(11);
  for (std::uint32_t epoch = 0; epoch < 12; ++epoch) {
    store.ingest(make_record(epoch, 0, 0, rng));
  }
  ASSERT_GT(store.compactions(), 0u);

  // Epoch 1 has been folded; a straggler for it merges into its segment.
  auto straggler = make_record(1, 5, 2, rng);
  const auto before = store.window_flow(1, 1, flow_key(5));
  EXPECT_FALSE(before.has_value());
  store.ingest(straggler);
  EXPECT_EQ(store.late_records(), 1u);
  const auto after = store.window_flow(1, 1, flow_key(5));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->bins(), straggler.sketch.bins());

  // Older than everything retained after an eviction -> dropped.
  SketchHistoryStore tiny{[] {
    HistoryConfig c;
    c.raw_epochs = 1;
    c.mid_segments = 1;
    c.mid_window = 1;
    c.coarse_window = 1;
    c.coarse_segments = 1;
    return c;
  }()};
  for (std::uint32_t epoch = 0; epoch < 8; ++epoch) {
    tiny.ingest(make_record(epoch, 0, 0, rng));
  }
  ASSERT_GT(tiny.evictions(), 0u);
  tiny.ingest(make_record(0, 0, 0, rng));
  EXPECT_EQ(tiny.dropped_records(), 1u);
}

TEST(HistoryStoreTest, RawWindowGrowsBackwardBeforeAnyDiscard) {
  HistoryConfig cfg;
  cfg.raw_epochs = 16;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(13);

  // First record arrives mid-stream (epoch 5) — a flow-hash-sprayed agent's
  // normal fate — then older epochs trickle in. All must stay raw.
  for (const std::uint32_t epoch : {5u, 3u, 4u, 0u, 1u, 2u}) {
    store.ingest(make_record(epoch, epoch, 0, rng));
  }
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.late_records(), 0u);
  EXPECT_EQ(*store.first_retained_epoch(), 0u);

  WindowCoverage cov;
  (void)store.window_fleet(0, 5, &cov);
  EXPECT_TRUE(cov.complete);
  EXPECT_EQ(cov.records, 6u);
  for (std::uint32_t epoch = 0; epoch <= 5; ++epoch) {
    EXPECT_TRUE(store.window_flow(epoch, epoch, flow_key(epoch)).has_value())
        << "epoch " << epoch;
  }
}

TEST(HistoryStoreTest, MemoryStaysBoundedAcrossThousandEpochs) {
  obs::MetricsRegistry registry;
  HistoryConfig cfg;
  cfg.raw_epochs = 8;
  cfg.mid_window = 4;
  cfg.mid_segments = 8;
  cfg.coarse_window = 16;
  cfg.coarse_segments = 8;
  cfg.retained_max_bins = 64;  // bin-collapsing: the second bounding mechanism
  cfg.max_bytes = 1u << 20;
  cfg.instruments.registry = &registry;
  SketchHistoryStore store(cfg);

  common::Xoshiro256 rng(17);
  constexpr std::uint32_t kEpochs = 1200;
  std::uint64_t ingested = 0;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    const int count = 8 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int i = 0; i < count; ++i) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform(0.0, 64.0));
      store.ingest(make_record(epoch, flow, static_cast<LinkId>(flow % 4), rng));
      ++ingested;
    }
    if (epoch % 100 == 0) {
      EXPECT_LE(store.approx_bytes(), cfg.max_bytes) << "epoch " << epoch;
    }
  }
  EXPECT_LE(store.approx_bytes(), cfg.max_bytes);
  EXPECT_EQ(store.records_ingested(), ingested);
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_GT(store.epochs_retained(), 0u);
  EXPECT_EQ(*store.last_epoch(), kEpochs - 1);
  // Retention is a contiguous recent range, and old epochs really left.
  EXPECT_GT(*store.first_retained_epoch(), 0u);

  // The watchdog gauges agree with the accessors.
  const auto snap = registry.snapshot();
  std::int64_t bytes_gauge = -1;
  std::int64_t epochs_gauge = -1;
  std::uint64_t records_counter = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name == "rlir_history_bytes") bytes_gauge = sample.gauge;
    if (sample.name == "rlir_history_epochs") epochs_gauge = sample.gauge;
    if (sample.name == "rlir_history_records_total") records_counter = sample.counter;
  }
  EXPECT_EQ(bytes_gauge, static_cast<std::int64_t>(store.approx_bytes()));
  EXPECT_EQ(epochs_gauge, static_cast<std::int64_t>(store.epochs_retained()));
  EXPECT_EQ(records_counter, ingested);
}

/// Two answers compared field by field; `sum` exactly, because both sides
/// merged the same sketches in the same order.
void expect_same_sketch(const common::LatencySketch& a, const common::LatencySketch& b,
                        const std::string& what) {
  EXPECT_EQ(a.bins(), b.bins()) << what;
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.zero_count(), b.zero_count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
}

// The owning ingest overload and the view path share one ingest body: fed
// the same records (raw, late into a compacted segment, and backward
// growth), two stores answer identically and account the same bytes.
TEST(HistoryStoreTest, OwningAndViewIngestAgree) {
  HistoryConfig cfg;
  cfg.raw_epochs = 4;
  cfg.mid_window = 2;
  cfg.mid_segments = 3;
  cfg.coarse_window = 4;
  cfg.coarse_segments = 4;
  cfg.retained_max_bins = 8;
  SketchHistoryStore owning(cfg);
  SketchHistoryStore viewing(cfg);

  common::Xoshiro256 rng(31);
  std::vector<EstimateRecord> records;
  for (const std::uint32_t epoch : {6u, 4u, 5u}) {  // backward growth first
    records.push_back(make_record(epoch, epoch, epoch % 3, rng));
  }
  for (std::uint32_t epoch = 6; epoch < 24; ++epoch) {
    for (int i = 0; i < 6; ++i) {
      records.push_back(make_record(epoch, static_cast<std::uint32_t>(i * 3 + epoch) % 9,
                                    static_cast<LinkId>(i % 3), rng));
    }
  }
  records.push_back(make_record(9, 2, 1, rng));   // late: compacted by now
  records.push_back(make_record(21, 4, 2, rng));  // late into a raw epoch

  for (const auto& r : records) owning.ingest(r);
  const auto wire = encode_records(records);
  std::vector<RecordView> views;
  (void)decode_record_views_prefix(wire.data(), wire.size(), views);
  viewing.ingest_views(views);

  ASSERT_GT(owning.late_records(), 0u);
  EXPECT_EQ(owning.late_records(), viewing.late_records());
  EXPECT_EQ(owning.records_ingested(), viewing.records_ingested());
  EXPECT_EQ(owning.approx_bytes(), viewing.approx_bytes());
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 30}, {20, 23}, {21, 21}, {8, 11}, {4, 17}}) {
    const std::string w = "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    expect_same_sketch(owning.window_fleet(lo, hi), viewing.window_fleet(lo, hi),
                       "fleet " + w);
    for (LinkId link = 0; link < 3; ++link) {
      const auto a = owning.window_link(lo, hi, link);
      const auto b = viewing.window_link(lo, hi, link);
      ASSERT_EQ(a.has_value(), b.has_value()) << "link " << link << " " << w;
      if (a.has_value()) expect_same_sketch(*a, *b, "link " + w);
    }
    for (std::uint32_t flow = 0; flow < 9; ++flow) {
      const auto a = owning.window_flow(lo, hi, flow_key(flow));
      const auto b = viewing.window_flow(lo, hi, flow_key(flow));
      ASSERT_EQ(a.has_value(), b.has_value()) << "flow " << flow << " " << w;
      if (a.has_value()) expect_same_sketch(*a, *b, "flow " + w);
    }
  }
}

/// A record whose sketch spans `bins` distinct bins, all inside a honest
/// producer budget of `max_bins` (values spread far apart on the log scale).
EstimateRecord wide_record(std::uint32_t epoch, std::uint32_t flow, LinkId link,
                           std::size_t max_bins, int bins, common::Xoshiro256& rng) {
  EstimateRecord r;
  r.key = flow_key(flow);
  r.link = link;
  r.epoch = epoch;
  r.sketch = common::LatencySketch({0.01, max_bins});
  for (int b = 0; b < bins; ++b) r.sketch.add(1e3 * std::exp(rng.uniform(0.0, 9.0)));
  return r;
}

// Raw-epoch link sketches must collapse no earlier than both budgets:
// answers and compacted segments stay what merging the records one by one
// gives, with retained_max_bins on either side of the producer budget and
// windows whose union spans far more bins than either.
TEST(HistoryStoreTest, LinkMapsCollapseLikeRecordByRecordMerge) {
  constexpr std::size_t kProducerBins = 16;
  for (const std::size_t retained : {std::size_t{6}, std::size_t{40}}) {
    SCOPED_TRACE("retained_max_bins " + std::to_string(retained));
    HistoryConfig cfg;
    cfg.raw_epochs = 4;
    cfg.mid_window = 4;
    cfg.mid_segments = 64;  // no coarse tier: every compacted segment is a mid one
    cfg.coarse_window = 4;
    cfg.retained_max_bins = retained;
    cfg.sketch.max_bins = kProducerBins;
    SketchHistoryStore store(cfg);
    const common::LatencySketchConfig producer{0.01, kProducerBins};
    const common::LatencySketchConfig compact{0.01, retained};

    constexpr std::uint32_t kEpochs = 16;
    constexpr LinkId kLinks = 3;
    common::Xoshiro256 rng(41);
    EpochRecords model;
    for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
      for (std::uint32_t i = 0; i < 9; ++i) {
        auto r = wide_record(epoch, i % 4, static_cast<LinkId>(i % kLinks), kProducerBins,
                             12, rng);
        model[epoch].push_back(r);
        store.ingest(r);
      }
    }
    ASSERT_EQ(*store.first_retained_epoch(), 0u);

    // Reference: the records merged one by one into the answer's budget
    // (raw epochs), or first into a retained-budget sketch per compacted
    // segment and link, then into the answer (what the fold produced when
    // it merged record by record).
    const auto reference = [&](std::uint32_t lo, std::uint32_t hi, bool compacted,
                               const std::function<bool(LinkId)>& want_link) {
      common::LatencySketch out(producer);
      for (LinkId link = 0; link < kLinks; ++link) {
        if (!want_link(link)) continue;
        common::LatencySketch seg(compacted ? compact : common::LatencySketchConfig{0.01, 0});
        for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi; ++it) {
          for (const auto& r : it->second) {
            if (r.link == link) seg.merge(r.sketch);
          }
        }
        out.merge(seg);
      }
      return out;
    };
    struct Window {
      std::uint32_t lo, hi;
      bool compacted;
    };
    for (const Window w : {Window{0, 3, true}, Window{4, 7, true}, Window{8, 11, true},
                           Window{12, 15, false}, Window{13, 13, false}}) {
      const std::string what = "[" + std::to_string(w.lo) + ", " + std::to_string(w.hi) + "]";
      const auto fleet = store.window_fleet(w.lo, w.hi);
      const auto want_fleet = reference(w.lo, w.hi, w.compacted, [](LinkId) { return true; });
      ASSERT_GT(direct_merge(model, w.lo, w.hi, [](const EstimateRecord&) { return true; })
                    .bin_count(),
                std::max(kProducerBins, retained))
          << "the window's records never overflowed a budget";
      EXPECT_EQ(fleet.bins(), want_fleet.bins()) << "fleet " << what;
      EXPECT_EQ(fleet.count(), want_fleet.count()) << "fleet " << what;
      for (LinkId link = 0; link < kLinks; ++link) {
        const auto got = store.window_link(w.lo, w.hi, link);
        ASSERT_TRUE(got.has_value());
        const auto want =
            reference(w.lo, w.hi, w.compacted, [link](LinkId l) { return l == link; });
        EXPECT_EQ(got->bins(), want.bins()) << "link " << link << " " << what;
        EXPECT_EQ(got->count(), want.count()) << "link " << link << " " << what;
      }
      if (!w.compacted) {
        // Raw answers are the plain direct merge into the answer's budget.
        const auto direct =
            direct_merge(model, w.lo, w.hi, [](const EstimateRecord&) { return true; });
        common::LatencySketch want(producer);
        want.merge(direct);
        EXPECT_EQ(fleet.bins(), want.bins()) << "fleet " << what;
      }
    }
  }
}

// A window query reads raw epochs without caching them: a record arriving
// for an epoch that was already answered (late, but still raw — including
// one that grows the raw window backwards) shows up in the next answer.
TEST(HistoryStoreTest, LateRawRecordAfterQueryStillCounts) {
  SketchHistoryStore store;
  common::Xoshiro256 rng(43);
  EpochRecords model;
  const auto feed = [&](std::uint32_t epoch, std::uint32_t flow, LinkId link) {
    auto r = make_record(epoch, flow, link, rng);
    model[epoch].push_back(r);
    store.ingest(r);
  };
  for (std::uint32_t epoch = 3; epoch < 8; ++epoch) feed(epoch, epoch, epoch % 2);

  const auto check = [&](std::uint32_t lo, std::uint32_t hi, const std::string& when) {
    const auto all = [](const EstimateRecord&) { return true; };
    const auto fleet = store.window_fleet(lo, hi);
    EXPECT_EQ(fleet.bins(), direct_merge(model, lo, hi, all).bins()) << when;
    EXPECT_EQ(fleet.count(), direct_merge(model, lo, hi, all).count()) << when;
    for (LinkId link = 0; link < 2; ++link) {
      const auto got = store.window_link(lo, hi, link);
      const auto want = direct_merge(model, lo, hi,
                                     [link](const EstimateRecord& r) { return r.link == link; });
      ASSERT_EQ(got.has_value(), !want.empty()) << when << " link " << link;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << when << " link " << link;
      }
    }
    for (std::uint32_t flow = 0; flow < 8; ++flow) {
      const auto got = store.window_flow(lo, hi, flow_key(flow));
      const auto want = direct_merge(
          model, lo, hi, [&](const EstimateRecord& r) { return r.key == flow_key(flow); });
      ASSERT_EQ(got.has_value(), !want.empty()) << when << " flow " << flow;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << when << " flow " << flow;
      }
    }
  };
  check(4, 4, "before");
  check(0, 7, "before");
  feed(4, 4, 1);  // same epoch, same flow, other link
  feed(4, 6, 0);  // same epoch, new flow
  feed(1, 1, 1);  // below the first-seen epoch: the raw window grows back
  EXPECT_EQ(store.late_records(), 0u);
  check(4, 4, "after");
  check(1, 1, "after");
  check(0, 7, "after");
  EXPECT_EQ(store.window_flows(0, 7).size(), 6u);  // flows 1, 3..7
}

// The key-only log scan: keys that differ only in a port or the protocol
// stay apart, zero-bin records (zero_count only) are found, and records on
// either side of a 64 KiB log-chunk boundary are all read.
TEST(HistoryStoreTest, KeyScanEdgeCases) {
  SketchHistoryStore store;
  common::Xoshiro256 rng(47);
  EpochRecords model;
  const auto feed = [&](EstimateRecord r) {
    model[r.epoch].push_back(r);
    store.ingest(r);
  };

  std::vector<net::FiveTuple> twins(4, flow_key(7));
  twins[1].src_port += 1;
  twins[2].dst_port += 1;
  twins[3].proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  for (std::size_t i = 0; i < twins.size(); ++i) {
    auto r = make_record(0, 7, 0, rng);
    r.key = twins[i];
    for (std::size_t extra = 0; extra < i; ++extra) r.sketch.add(1e6);
    feed(r);
  }
  EstimateRecord zero;  // zero bin only: no serialized bins at all
  zero.key = flow_key(900);
  zero.link = 1;
  zero.epoch = 0;
  zero.sketch.add(0.0, 3);
  ASSERT_EQ(zero.sketch.bin_count(), 0u);
  feed(zero);

  // One epoch's log well past one 64 KiB chunk (~140 bytes per record).
  constexpr std::uint32_t kMany = 1600;
  for (std::uint32_t f = 0; f < kMany; ++f) feed(make_record(1, 1000 + f, f % 3, rng));
  std::uint64_t log_bytes = 0;
  for (const auto& r : model[1]) log_bytes += wire_size(r);
  ASSERT_GT(log_bytes, 2u * (64u << 10)) << "the epoch never crossed a chunk boundary";

  std::vector<net::FiveTuple> want_keys;
  for (const auto& [epoch, records] : model) {
    for (const auto& r : records) {
      const auto got = store.window_flow(0, 1, r.key);
      const auto want =
          direct_merge(model, 0, 1, [&](const EstimateRecord& m) { return m.key == r.key; });
      ASSERT_TRUE(got.has_value()) << "epoch " << epoch;
      EXPECT_EQ(got->bins(), want.bins()) << "epoch " << epoch;
      EXPECT_EQ(got->count(), want.count()) << "epoch " << epoch;
      EXPECT_EQ(got->zero_count(), want.zero_count()) << "epoch " << epoch;
      want_keys.push_back(r.key);
    }
  }
  std::sort(want_keys.begin(), want_keys.end());
  EXPECT_EQ(store.window_flows(0, 1), want_keys);  // every key distinct
  EXPECT_FALSE(store.window_flow(0, 1, flow_key(8)).has_value());
  EXPECT_EQ(store.window_flow(0, 0, zero.key)->zero_count(), 3u);
  EXPECT_EQ(store.window_flow(0, 0, twins[3])->count(), model[0][3].sketch.count());
}

// Concurrency smoke for the TSan pass: writers tee while readers window.
// Correctness of the answers is the property test's job; this one's job is
// to put the lock under real contention.
TEST(HistoryStoreTest, ConcurrentIngestAndQuery) {
  HistoryConfig cfg;
  cfg.raw_epochs = 4;
  cfg.mid_window = 2;
  cfg.mid_segments = 2;
  cfg.coarse_window = 4;
  cfg.coarse_segments = 2;
  SketchHistoryStore store(cfg);

  constexpr int kWriters = 3;
  constexpr std::uint32_t kPerWriter = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      common::Xoshiro256 rng(100 + w);
      for (std::uint32_t i = 0; i < kPerWriter; ++i) {
        store.ingest(make_record(i / 50, i % 8, static_cast<LinkId>(w), rng));
      }
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < 500; ++i) {
      (void)store.window_fleet(0, 60);
      (void)store.window_flow(0, 60, flow_key(1));
      (void)store.approx_bytes();
      (void)store.epochs_retained();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.records_ingested() + store.dropped_records(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace rlir::collect
