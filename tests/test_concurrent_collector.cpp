// ConcurrentShardedCollector: zero-copy batch ingest from any number of
// threads, with readers querying alongside, must converge to exactly the
// state a serial ShardedCollector reaches on the same records — bin for
// bin, epoch count included. These tests are the TSan job's main workload.
#include "collect/concurrent_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "submit_records.h"

namespace rlir::collect {
namespace {

net::FiveTuple make_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 1);
  key.src_port = static_cast<std::uint16_t>(2000 + i);
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

EstimateRecord make_record(std::uint32_t flow, LinkId link, std::uint32_t epoch,
                           double latency_base, common::Xoshiro256& rng, int samples = 20) {
  EstimateRecord r;
  r.key = make_key(flow);
  r.link = link;
  r.epoch = epoch;
  r.sender = 1;
  for (int i = 0; i < samples; ++i) r.sketch.add(latency_base * rng.uniform(0.5, 1.5));
  return r;
}

/// A deterministic workload: `count` records over `flows` flows, 4 links,
/// 3 epochs. Seeded per caller so producers can each own a disjoint slice.
std::vector<EstimateRecord> make_workload(std::uint64_t seed, std::uint32_t count,
                                          std::uint32_t flows) {
  common::Xoshiro256 rng(seed);
  std::vector<EstimateRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    records.push_back(
        make_record(i % flows, i % 4, i % 3, 20e3 + 1e3 * (i % flows), rng, 10));
  }
  return records;
}

/// Splits `records` into wire-encoded batches of 1-32 records (random
/// sizes); views decoded from each batch borrow its bytes.
std::vector<std::vector<std::uint8_t>> encode_batches(const std::vector<EstimateRecord>& records,
                                                      common::Xoshiro256& rng) {
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next() % 32, records.size() - i);
    const auto first = records.begin() + static_cast<std::ptrdiff_t>(i);
    wires.push_back(encode_records(std::vector<EstimateRecord>(first, first + n)));
    i += n;
  }
  return wires;
}

/// Decodes one wire batch to views and submits them as one batch.
void submit_wire(ConcurrentShardedCollector& collector, const std::vector<std::uint8_t>& bytes) {
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  collector.submit_views(views);
}

/// Randomized-epoch records: shared epochs 0-15 go to any of 48 flows; the
/// 20 private epochs from `first_private_epoch` each belong to one flow
/// (flow id = epoch).
std::vector<EstimateRecord> make_epoch_workload(common::Xoshiro256& rng,
                                                std::uint32_t first_private_epoch) {
  std::vector<EstimateRecord> records;
  for (int i = 0; i < 400; ++i) {
    const bool shared = rng.next() % 2 == 0;
    const auto epoch = static_cast<std::uint32_t>(shared ? rng.next() % 16
                                                         : first_private_epoch + rng.next() % 20);
    const auto flow = shared ? static_cast<std::uint32_t>(rng.next() % 48) : epoch;
    records.push_back(make_record(flow, flow % 4, epoch, 30e3, rng, 4));
  }
  return records;
}

/// The equivalence oracle: serial collector state vs concurrent snapshot,
/// compared exactly (counts, per-flow bins, fleet bins, top-k ordering).
void expect_equal_state(ShardedCollector& serial, ShardedCollector snapshot,
                        std::uint32_t flows) {
  EXPECT_EQ(snapshot.flow_count(), serial.flow_count());
  EXPECT_EQ(snapshot.records_ingested(), serial.records_ingested());
  EXPECT_EQ(snapshot.estimates_ingested(), serial.estimates_ingested());
  EXPECT_EQ(snapshot.epoch_count(), serial.epoch_count());
  EXPECT_EQ(snapshot.fleet().bins(), serial.fleet().bins());
  for (std::uint32_t f = 0; f < flows; ++f) {
    const auto* a = snapshot.flow(make_key(f));
    const auto* b = serial.flow(make_key(f));
    ASSERT_EQ(a == nullptr, b == nullptr) << "flow " << f;
    if (a != nullptr && b != nullptr) {
      EXPECT_EQ(a->bins(), b->bins()) << "flow " << f;
    }
  }
  const auto top_a = snapshot.top_k_flows(10, 0.99);
  const auto top_b = serial.top_k_flows(10, 0.99);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (std::size_t i = 0; i < top_a.size(); ++i) {
    EXPECT_EQ(top_a[i].key, top_b[i].key) << "rank " << i;
    EXPECT_EQ(top_a[i].p99_ns, top_b[i].p99_ns) << "rank " << i;
  }
}

TEST(ConcurrentCollectorTest, ZeroShardsThrows) {
  CollectorConfig cfg;
  cfg.shard_count = 0;
  EXPECT_THROW(ConcurrentShardedCollector{cfg}, std::invalid_argument);
}

TEST(ConcurrentCollectorTest, BadTopKQuantileThrows) {
  CollectorConfig cfg;
  cfg.top_k_quantile = 1.5;
  EXPECT_THROW(ConcurrentShardedCollector{cfg}, std::invalid_argument);
}

TEST(ConcurrentCollectorTest, SingleProducerMatchesSerialExactly) {
  constexpr std::uint32_t kFlows = 50;
  const auto records = make_workload(1, 400, kFlows);

  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  ConcurrentShardedCollector concurrent(CollectorConfig{4, {}});
  testutil::submit_records(concurrent, records);

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, ManyProducersMatchSerialExactly) {
  // Four producers submit view batches of random sizes while a reader
  // queries. Epochs are randomized (make_epoch_workload) so the epoch
  // count is exercised too; each producer has its own 20 private epochs.
  constexpr int kProducers = 4;
  constexpr std::uint32_t kFlows = 16 + 20 * kProducers;  // private flow id = its epoch
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    common::Xoshiro256 rng(seed);
    ShardedCollector serial(CollectorConfig{4, {}});
    // Each producer's batches, encoded up front; views borrow these bytes.
    std::vector<std::vector<std::vector<std::uint8_t>>> wires(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      const auto records =
          make_epoch_workload(rng, 16 + 20 * static_cast<std::uint32_t>(p));
      serial.ingest(records);
      wires[p] = encode_batches(records, rng);
    }

    ConcurrentShardedCollector concurrent(CollectorConfig{4, {}});
    std::atomic<int> running{kProducers};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&concurrent, &running, &wire = wires[p]] {
        for (const auto& bytes : wire) submit_wire(concurrent, bytes);
        running.fetch_sub(1);
      });
    }
    std::uint64_t last_records = 0;
    std::size_t last_epochs = 0;
    while (running.load() > 0) {
      const std::uint64_t n = concurrent.records_ingested();
      const std::size_t e = concurrent.epoch_count();
      EXPECT_GE(n, last_records);
      EXPECT_GE(e, last_epochs);
      last_records = n;
      last_epochs = e;
      (void)concurrent.fleet();
      (void)concurrent.top_k_ranked(5, 0.99);
      (void)concurrent.link_distributions();
    }
    for (auto& t : producers) t.join();

    EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());
    EXPECT_EQ(serial.epoch_count(), 16u + 20u * kProducers);
    expect_equal_state(serial, concurrent.snapshot(), kFlows);
    for (const LinkId link : serial.links()) {
      EXPECT_EQ(concurrent.link_distribution(link)->bins(),
                serial.link_distribution(link)->bins())
          << "link " << link;
    }
  }
}

TEST(ConcurrentCollectorTest, LinkAndFleetQueriesMergeAcrossLanes) {
  common::Xoshiro256 rng(12);
  ConcurrentShardedCollector collector;
  common::LatencySketch link0_direct, link1_direct;
  std::vector<EstimateRecord> records;
  for (std::uint32_t i = 0; i < 30; ++i) {
    auto r = make_record(i, i % 2, 0, i % 2 == 0 ? 10e3 : 200e3, rng, 10);
    (i % 2 == 0 ? link0_direct : link1_direct).merge(r.sketch);
    records.push_back(std::move(r));
  }
  testutil::submit_records(collector, records);
  EXPECT_EQ(collector.links(), (std::vector<LinkId>{0, 1}));
  const auto link0 = collector.link_distribution(0);
  ASSERT_TRUE(link0.has_value());
  EXPECT_EQ(link0->bins(), link0_direct.bins());
  EXPECT_FALSE(collector.link_distribution(42).has_value());
  auto fleet_direct = link0_direct;
  fleet_direct.merge(link1_direct);
  EXPECT_EQ(collector.fleet().bins(), fleet_direct.bins());
}

TEST(ConcurrentCollectorTest, AccuracyMismatchThrowsOnSubmittingThread) {
  // One bad record rejects its whole batch: the good record ahead of it
  // must not be merged either.
  common::Xoshiro256 rng(13);
  std::vector<EstimateRecord> batch;
  batch.push_back(make_record(0, 0, 0, 50e3, rng));
  EstimateRecord bad;
  bad.key = make_key(1);
  bad.sketch = common::LatencySketch(common::LatencySketchConfig{0.05, 128});
  bad.sketch.add(100.0);
  batch.push_back(std::move(bad));

  ConcurrentShardedCollector collector;
  EXPECT_THROW(testutil::submit_records(collector, batch), std::invalid_argument);
  EXPECT_EQ(collector.flow_count(), 0u);
  EXPECT_EQ(collector.records_ingested(), 0u);
  EXPECT_EQ(collector.epoch_count(), 0u);
  EXPECT_TRUE(collector.links().empty());
}

TEST(ConcurrentCollectorTest, ShardFlowCountsCoverAllLanes) {
  const auto records = make_workload(21, 300, 80);
  ConcurrentShardedCollector collector(CollectorConfig{4, {}});
  testutil::submit_records(collector, records);
  const auto counts = collector.shard_flow_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  EXPECT_EQ(total, collector.flow_count());
  EXPECT_EQ(collector.flow_count(), 80u);
  EXPECT_EQ(collector.epoch_count(), 3u);
}

TEST(ConcurrentCollectorTest, QuiesceIsABarrierForConcurrentReaders) {
  // Ingest is synchronous, so a returned submit_views() is itself the
  // barrier: once the writer has published that a batch returned, every
  // query on another thread must already count it. The reader checks that
  // against the writer's published progress while the writer streams.
  constexpr std::uint32_t kFlows = 60;
  const auto records = make_workload(33, 1'000, kFlows);
  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);
  common::Xoshiro256 rng(33);
  const auto wires = encode_batches(records, rng);
  std::vector<std::uint64_t> records_after(wires.size());  // cumulative per batch
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    std::vector<RecordView> views;
    decode_record_views_prefix(wires[i].data(), wires[i].size(), views);
    total += views.size();
    records_after[i] = total;
  }

  ConcurrentShardedCollector concurrent(CollectorConfig{4, {}});
  std::atomic<std::size_t> batches_done{0};
  std::thread writer([&] {
    for (const auto& bytes : wires) {
      submit_wire(concurrent, bytes);
      batches_done.fetch_add(1);
    }
  });
  std::uint64_t last_records = 0;
  while (batches_done.load() < wires.size()) {
    const std::size_t done = batches_done.load();
    const std::uint64_t n = concurrent.records_ingested();
    if (done > 0) {
      EXPECT_GE(n, records_after[done - 1]);
    }
    EXPECT_GE(n, last_records);  // monotone under a single writer
    last_records = n;
    (void)concurrent.fleet();
    (void)concurrent.top_k_ranked(5, 0.99);
  }
  writer.join();

  EXPECT_EQ(concurrent.records_ingested(), total);
  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, EpochCountMatchesSerialUnderRandomizedMultiLaneIngest) {
  // epoch_count() after each of three phases, against the serial
  // collector: two threads racing view batches, one large batch, then two
  // threads again. Shared epochs 0-15 recur in every phase; each phase
  // adds 20 private epochs, each belonging to one flow.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    common::Xoshiro256 rng(seed);
    ShardedCollector serial(CollectorConfig{4, {}});
    ConcurrentShardedCollector concurrent(CollectorConfig{4, {}});

    const auto race = [&](const std::vector<EstimateRecord>& records) {
      const auto wires = encode_batches(records, rng);
      std::thread other([&] {
        for (std::size_t i = 1; i < wires.size(); i += 2) submit_wire(concurrent, wires[i]);
      });
      for (std::size_t i = 0; i < wires.size(); i += 2) submit_wire(concurrent, wires[i]);
      other.join();
      serial.ingest(records);
    };

    race(make_epoch_workload(rng, 16));
    EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());

    const auto batch = make_epoch_workload(rng, 36);
    testutil::submit_records(concurrent, batch);
    serial.ingest(batch);
    EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());

    race(make_epoch_workload(rng, 56));
    EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());
    EXPECT_EQ(serial.epoch_count(), 76u);
  }
}

}  // namespace
}  // namespace rlir::collect
