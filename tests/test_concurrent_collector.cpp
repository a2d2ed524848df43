// ConcurrentShardedCollector: thread-per-shard ingest must converge to
// exactly the state a serial ShardedCollector reaches on the same records —
// bin for bin — regardless of producer count, queue pressure (fallback
// path), or the queueless mutex-per-shard mode. quiesce() is the barrier
// that makes queries consistent; these tests are the TSan job's main
// workload.
#include "collect/concurrent_collector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

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
  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 0;
  EXPECT_THROW(ConcurrentShardedCollector{cfg}, std::invalid_argument);
}

TEST(ConcurrentCollectorTest, BadTopKQuantileThrows) {
  ConcurrentCollectorConfig cfg;
  cfg.top_k_quantile = 1.5;
  EXPECT_THROW(ConcurrentShardedCollector{cfg}, std::invalid_argument);
}

TEST(ConcurrentCollectorTest, SingleProducerMatchesSerialExactly) {
  constexpr std::uint32_t kFlows = 50;
  const auto records = make_workload(1, 400, kFlows);

  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 4;
  ConcurrentShardedCollector concurrent(cfg);
  concurrent.submit(records);

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, ManyProducersMatchSerialExactly) {
  constexpr std::uint32_t kFlows = 120;
  constexpr int kProducers = 8;
  std::vector<std::vector<EstimateRecord>> slices;
  ShardedCollector serial(CollectorConfig{4, {}});
  for (int p = 0; p < kProducers; ++p) {
    slices.push_back(make_workload(100 + p, 300, kFlows));
    serial.ingest(slices.back());
  }

  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 64;  // small enough that producers race the workers
  ConcurrentShardedCollector concurrent(cfg);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&concurrent, slice = slices[p]]() mutable {
      for (auto& r : slice) concurrent.submit(std::move(r));
    });
  }
  for (auto& t : producers) t.join();

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, FullQueueTakesFallbackPathAndStaysExact) {
  constexpr std::uint32_t kFlows = 40;
  const auto records = make_workload(7, 600, kFlows);
  ShardedCollector serial(CollectorConfig{2, {}});
  serial.ingest(records);

  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 2;
  cfg.queue_capacity = 1;  // essentially every submission collides
  ConcurrentShardedCollector concurrent(cfg);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&concurrent, &records, p] {
      for (std::size_t i = p; i < records.size(); i += 4) concurrent.submit(records[i]);
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_GT(concurrent.fallback_ingests(), 0u);
  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, QueuelessModeIsMutexPerShardAndStaysExact) {
  constexpr std::uint32_t kFlows = 40;
  const auto records = make_workload(9, 500, kFlows);
  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 0;  // no worker threads: submit() merges inline
  ConcurrentShardedCollector concurrent(cfg);
  EXPECT_FALSE(concurrent.threaded());
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&concurrent, &records, p] {
      for (std::size_t i = p; i < records.size(); i += 4) concurrent.submit(records[i]);
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(concurrent.fallback_ingests(), 0u);
  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, QueriesQuiesceImplicitly) {
  common::Xoshiro256 rng(11);
  ConcurrentShardedCollector collector;
  const auto record = make_record(3, 0, 0, 80e3, rng, 50);
  collector.submit(record);
  // No explicit quiesce: the query itself must observe the submission.
  const auto summary = collector.flow_summary(record.key);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->packets, record.sketch.count());
  EXPECT_EQ(collector.flow_quantile(record.key, 0.5), record.sketch.quantile(0.5));
  EXPECT_EQ(collector.records_ingested(), 1u);
}

TEST(ConcurrentCollectorTest, LinkAndFleetQueriesMergeAcrossLanes) {
  common::Xoshiro256 rng(12);
  ConcurrentShardedCollector collector;
  common::LatencySketch link0_direct, link1_direct;
  for (std::uint32_t i = 0; i < 30; ++i) {
    auto r = make_record(i, i % 2, 0, i % 2 == 0 ? 10e3 : 200e3, rng, 10);
    (i % 2 == 0 ? link0_direct : link1_direct).merge(r.sketch);
    collector.submit(std::move(r));
  }
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
  ConcurrentShardedCollector collector;
  EstimateRecord r;
  r.key = make_key(1);
  r.sketch = common::LatencySketch(common::LatencySketchConfig{0.05, 128});
  r.sketch.add(100.0);
  EXPECT_THROW(collector.submit(std::move(r)), std::invalid_argument);
  EXPECT_EQ(collector.flow_count(), 0u);
  EXPECT_EQ(collector.records_ingested(), 0u);
}

TEST(ConcurrentCollectorTest, ShardFlowCountsCoverAllLanes) {
  const auto records = make_workload(21, 300, 80);
  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 4;
  ConcurrentShardedCollector collector(cfg);
  collector.submit(records);
  const auto counts = collector.shard_flow_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  EXPECT_EQ(total, collector.flow_count());
  EXPECT_EQ(collector.flow_count(), 80u);
  EXPECT_EQ(collector.epoch_count(), 3u);
}

TEST(ConcurrentCollectorTest, QuiesceIsABarrierForConcurrentReaders) {
  // One writer streams records while a reader repeatedly queries; every
  // query must see internally consistent (quiesced) state and never crash
  // or race. The final state must be exact.
  constexpr std::uint32_t kFlows = 60;
  const auto records = make_workload(33, 1'000, kFlows);
  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  ConcurrentCollectorConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 32;
  ConcurrentShardedCollector concurrent(cfg);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const auto& r : records) concurrent.submit(r);
    done.store(true);
  });
  std::uint64_t last_records = 0;
  while (!done.load()) {
    const std::uint64_t n = concurrent.records_ingested();
    EXPECT_GE(n, last_records);  // monotone under a single writer
    last_records = n;
    (void)concurrent.fleet();
    (void)concurrent.top_k_flows(5, 0.99);
  }
  writer.join();

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, EpochCountMatchesSerialUnderRandomizedMultiLaneIngest) {
  // epoch_count() is tracked as lanes first see each epoch. The records
  // arrive in three phases, one per ingest path: per-record submits racing
  // on two threads, batch submit, and zero-copy views; in queueless,
  // small-queue (fallback path) and roomy-queue modes. Shared epochs 0-15
  // go to any flow, so every lane sees them; each phase also has 20 private
  // epochs of its own, each belonging to one flow and so seen by one lane.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const std::size_t queue_capacity : {std::size_t{0}, std::size_t{8}, std::size_t{1024}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " queue " << queue_capacity);
      common::Xoshiro256 rng(seed);
      const auto phase = [&rng](std::uint32_t first_private_epoch) {
        std::vector<EstimateRecord> records;
        for (int i = 0; i < 400; ++i) {
          const bool shared = rng.next() % 2 == 0;
          const auto epoch = static_cast<std::uint32_t>(
              shared ? rng.next() % 16 : first_private_epoch + rng.next() % 20);
          const auto flow = shared ? static_cast<std::uint32_t>(rng.next() % 48) : epoch;
          records.push_back(make_record(flow, flow % 4, epoch, 30e3, rng, 4));
        }
        return records;
      };
      const auto singles = phase(16);
      const auto batch = phase(36);
      const auto viewed = phase(56);
      ShardedCollector serial(CollectorConfig{4, {}});
      ConcurrentCollectorConfig cfg;
      cfg.shard_count = 4;
      cfg.queue_capacity = queue_capacity;
      ConcurrentShardedCollector concurrent(cfg);

      std::thread other([&] {
        for (std::size_t i = 1; i < singles.size(); i += 2) concurrent.submit(singles[i]);
      });
      for (std::size_t i = 0; i < singles.size(); i += 2) concurrent.submit(singles[i]);
      other.join();
      serial.ingest(singles);
      EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());

      concurrent.submit(batch);
      serial.ingest(batch);
      EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());

      const auto wire = encode_records(viewed);
      std::vector<RecordView> views;
      ASSERT_EQ(decode_record_views_prefix(wire.data(), wire.size(), views), wire.size());
      concurrent.submit_views(views);
      serial.ingest(viewed);
      EXPECT_EQ(concurrent.epoch_count(), serial.epoch_count());
      EXPECT_EQ(serial.epoch_count(), 76u);
    }
  }
}

}  // namespace
}  // namespace rlir::collect
