// Micro-benchmarks (google-benchmark) for the substrate's hot paths:
// not a paper figure — validates that the building blocks are fast enough
// for paper-scale replays (tens of millions of packets).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/lda.h"
#include "collect/estimate_record.h"
#include "collect/exporter.h"
#include "collect/history.h"
#include "common/rng.h"
#include "net/hash.h"
#include "net/prefix_table.h"
#include "rli/receiver.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "sim/queue.h"
#include "timebase/clock.h"
#include "topo/ecmp.h"
#include "trace/flowmeter.h"
#include "trace/synthetic.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/socket.h"

namespace {

using namespace rlir;
namespace rr = ::rlir::rlir;

net::FiveTuple random_key(common::Xoshiro256& rng) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.src_port = static_cast<std::uint16_t>(rng.next());
  key.dst_port = static_cast<std::uint16_t>(rng.next());
  key.proto = 6;
  return key;
}

void BM_FlowKeyHash(benchmark::State& state) {
  common::Xoshiro256 rng(1);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys[i++ & 1023].hash());
  }
}
BENCHMARK(BM_FlowKeyHash);

void BM_EcmpCrc32Select(benchmark::State& state) {
  common::Xoshiro256 rng(2);
  topo::Crc32EcmpHasher hasher;
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.select(keys[i++ & 1023], 0x1234, 4));
  }
}
BENCHMARK(BM_EcmpCrc32Select);

void BM_ReverseEcmpCore(benchmark::State& state) {
  topo::FatTree topo(static_cast<int>(state.range(0)));
  topo::Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(3);
  const auto src = topo.tor(0, 0);
  const auto dst = topo.tor(topo.pods() - 1, 0);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::reverse_ecmp_core(topo, hasher, keys[i++ & 1023], src, dst));
  }
}
BENCHMARK(BM_ReverseEcmpCore)->Arg(4)->Arg(16)->Arg(48);

void BM_PrefixTableLookup(benchmark::State& state) {
  net::PrefixTable<int> table;
  // One /24 per ToR of a k=48 fat-tree (1152 rules).
  for (int pod = 0; pod < 48; ++pod) {
    for (int t = 0; t < 24; ++t) {
      table.insert(net::Ipv4Prefix(net::Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                                    static_cast<std::uint8_t>(t), 0),
                                   24),
                   pod * 24 + t);
    }
  }
  common::Xoshiro256 rng(4);
  std::vector<net::Ipv4Address> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.push_back(net::Ipv4Address(10, static_cast<std::uint8_t>(rng.uniform_u64(48)),
                                     static_cast<std::uint8_t>(rng.uniform_u64(24)),
                                     static_cast<std::uint8_t>(rng.uniform_u64(254) + 1)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup_ptr(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTableLookup);

/// A regular packet from a random host under `origin` to one under `dst_tor`.
net::Packet fabric_packet(const topo::FatTree& topo, topo::NodeId origin,
                          topo::NodeId dst_tor, common::Xoshiro256& rng) {
  net::Packet p;
  p.key.src = topo.host_address(origin, static_cast<int>(rng.uniform_u64(200)));
  p.key.dst = topo.host_address(dst_tor, static_cast<int>(rng.uniform_u64(200)));
  p.key.src_port = static_cast<std::uint16_t>(rng.next());
  p.key.dst_port = static_cast<std::uint16_t>(rng.next());
  return p;
}

// Upstream demux at a core: one /24 rule per ToR of a k=48 fat tree.
void BM_PrefixDemuxClassify(benchmark::State& state) {
  const topo::FatTree topo(48);
  rr::PrefixDemux demux;
  for (int pod = 0; pod < topo.pods(); ++pod) {
    for (int t = 0; t < topo.tors_per_pod(); ++t) {
      demux.add_origin(topo.host_prefix(topo.tor(pod, t)),
                       static_cast<net::SenderId>(pod * topo.tors_per_pod() + t));
    }
  }
  common::Xoshiro256 rng(11);
  std::vector<net::Packet> packets;
  for (int i = 0; i < 1024; ++i) {
    const auto origin = topo.tor(static_cast<int>(rng.uniform_u64(48)),
                                 static_cast<int>(rng.uniform_u64(24)));
    packets.push_back(fabric_packet(topo, origin, topo.tor(0, 0), rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(demux.classify(packets[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixDemuxClassify);

// Downstream demux at a destination ToR, cross-pod traffic (the reverse-ECMP
// path); compare with BM_ReverseEcmpCore at the same k.
void BM_ReverseEcmpDemuxClassify(benchmark::State& state) {
  const topo::FatTree topo(static_cast<int>(state.range(0)));
  const topo::Crc32EcmpHasher hasher;
  const auto receiver = topo.tor(topo.pods() - 1, 0);
  rr::ReverseEcmpDemux demux(&topo, &hasher, receiver);
  for (int c = 0; c < topo.core_count(); ++c) {
    demux.set_sender_at_core(c, static_cast<net::SenderId>(c));
  }
  common::Xoshiro256 rng(12);
  const auto other_pods = static_cast<std::uint64_t>(topo.pods() - 1);
  const auto tors = static_cast<std::uint64_t>(topo.tors_per_pod());
  std::vector<net::Packet> packets;
  for (int i = 0; i < 1024; ++i) {
    const auto origin = topo.tor(static_cast<int>(rng.uniform_u64(other_pods)),
                                 static_cast<int>(rng.uniform_u64(tors)));
    packets.push_back(fabric_packet(topo, origin, receiver, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(demux.classify(packets[i++ & 1023]));
  }
}
BENCHMARK(BM_ReverseEcmpDemuxClassify)->Arg(4)->Arg(16)->Arg(48);

// One tap packet through a destination-ToR vantage: reverse-ECMP demux,
// interpolation in the sender's stream, and the exporter's sketch add for
// each estimate. 48 flows over the four cores of a k=4 fabric, one reference
// per 25 packets (each core's sender every 100), as in a long-flow workload.
void BM_RlirReceiverExportPacket(benchmark::State& state) {
  const topo::FatTree topo(4);
  const topo::Crc32EcmpHasher hasher;
  const auto receiver_tor = topo.tor(3, 0);
  rr::ReverseEcmpDemux demux(&topo, &hasher, receiver_tor);
  for (int c = 0; c < topo.core_count(); ++c) {
    demux.set_sender_at_core(c, static_cast<net::SenderId>(c));
  }
  const timebase::PerfectClock clock;
  rr::RlirReceiver receiver(rli::ReceiverConfig{}, &clock, &demux);
  collect::EstimateExporter exporter(collect::ExporterConfig{});
  exporter.attach(receiver);

  common::Xoshiro256 rng(13);
  std::vector<net::Packet> flows;
  for (int f = 0; f < 48; ++f) {
    flows.push_back(fabric_packet(topo, topo.tor(f % 3, f % 2), receiver_tor, rng));
  }
  std::int64_t t = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    t += 700;
    if (n % 25 == 0) {
      net::Packet ref = net::make_reference_packet(
          static_cast<net::SenderId>((n / 25) % 4), timebase::TimePoint(t),
          timebase::TimePoint(t - 2000 - static_cast<std::int64_t>(n % 7) * 300), n);
      receiver.on_packet(ref, ref.ts);
    } else {
      net::Packet& pkt = flows[n % 48];
      pkt.ts = timebase::TimePoint(t);
      receiver.on_packet(pkt, pkt.ts);
    }
    ++n;
  }
  benchmark::DoNotOptimize(exporter.estimates_observed());
}
BENCHMARK(BM_RlirReceiverExportPacket);

void BM_FifoQueueOffer(benchmark::State& state) {
  sim::QueueConfig cfg;
  cfg.capacity_bytes = std::uint64_t{1} << 40;  // never drop
  sim::FifoQueue queue(cfg);
  net::Packet pkt;
  pkt.size_bytes = 750;
  std::int64_t t = 0;
  for (auto _ : state) {
    pkt.ts = timebase::TimePoint(t += 600);
    benchmark::DoNotOptimize(queue.offer(pkt, pkt.ts));
  }
}
BENCHMARK(BM_FifoQueueOffer);

void BM_SyntheticGenerate(benchmark::State& state) {
  for (auto _ : state) {
    trace::SyntheticConfig cfg;
    cfg.duration = timebase::Duration::milliseconds(10);
    cfg.offered_bps = 2.2e9;
    cfg.seed = 7;
    trace::SyntheticTraceGenerator gen(cfg);
    std::uint64_t n = 0;
    while (auto p = gen.next()) ++n;
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.items_processed() + static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_SyntheticGenerate);

void BM_FlowmeterObserve(benchmark::State& state) {
  trace::SyntheticConfig cfg;
  cfg.duration = timebase::Duration::milliseconds(50);
  cfg.offered_bps = 2.2e9;
  cfg.seed = 8;
  const auto packets = trace::SyntheticTraceGenerator(cfg).generate_all();
  for (auto _ : state) {
    trace::Flowmeter meter;
    for (const auto& p : packets) meter.observe(p);
    benchmark::DoNotOptimize(meter.active_flows());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(packets.size()));
  }
}
BENCHMARK(BM_FlowmeterObserve);

void BM_LdaRecord(benchmark::State& state) {
  baseline::LdaSketch sketch(baseline::LdaConfig{});
  common::Xoshiro256 rng(9);
  net::Packet pkt;
  pkt.key = random_key(rng);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    pkt.seq = seq++;
    sketch.record(pkt, timebase::TimePoint(static_cast<std::int64_t>(seq)));
  }
}
BENCHMARK(BM_LdaRecord);

void BM_RliReceiverPacket(benchmark::State& state) {
  timebase::PerfectClock clock;
  rli::RliReceiver receiver(rli::ReceiverConfig{}, &clock);
  common::Xoshiro256 rng(10);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 256; ++i) keys.push_back(random_key(rng));
  std::int64_t t = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    t += 700;
    if (n % 100 == 0) {
      net::Packet ref = net::make_reference_packet(
          1, timebase::TimePoint(t - 2000), timebase::TimePoint(t - 2000), n);
      ref.ts = timebase::TimePoint(t);
      receiver.on_packet(ref, ref.ts);
    } else {
      net::Packet pkt;
      pkt.key = keys[n & 255];
      pkt.ts = timebase::TimePoint(t);
      pkt.injected_at = timebase::TimePoint(t - 2000);
      receiver.on_packet(pkt, pkt.ts);
    }
    ++n;
  }
}
BENCHMARK(BM_RliReceiverPacket);

// --- History store at live_ops shape -------------------------------------
// 64 raw epochs x 512 records (~6 bins each) over 256 flows and 6 links:
// what the pipeline bench's live_ops agent retains in its raw tier. Window
// queries cover the newest 8 epochs, as live_ops' window queries do.

constexpr std::uint32_t kHistEpochs = 64;
constexpr std::uint32_t kHistRecordsPerEpoch = 512;
constexpr std::uint32_t kHistFlows = 256;
constexpr std::uint32_t kHistLinks = 6;
constexpr std::uint32_t kHistWindow = 8;

/// One epoch's batch, encoded and decoded back to views over `wire`
/// (epoch 0; callers re-stamp the views' epoch field).
std::vector<collect::RecordView> history_epoch_views(std::vector<std::uint8_t>& wire) {
  common::Xoshiro256 rng(21);
  std::vector<net::FiveTuple> keys;
  for (std::uint32_t f = 0; f < kHistFlows; ++f) keys.push_back(random_key(rng));
  std::vector<collect::EstimateRecord> records;
  for (std::uint32_t i = 0; i < kHistRecordsPerEpoch; ++i) {
    collect::EstimateRecord r;
    r.key = keys[i % kHistFlows];
    r.link = i % kHistLinks;
    r.sender = 1;
    for (int s = 0; s < 6; ++s) r.sketch.add(20e3 * std::exp(rng.uniform(0.0, 1.5)));
    records.push_back(std::move(r));
  }
  wire = collect::encode_records(records);
  std::vector<collect::RecordView> views;
  (void)collect::decode_record_views_prefix(wire.data(), wire.size(), views);
  return views;
}

/// Feeds `views` as epochs [first, first + epochs).
void feed_history(collect::SketchHistoryStore& store, std::vector<collect::RecordView>& views,
                  std::uint32_t first, std::uint32_t epochs) {
  for (std::uint32_t e = first; e < first + epochs; ++e) {
    for (auto& v : views) v.epoch = e;
    store.ingest_views(views);
  }
}

void BM_HistoryWindowFleet(benchmark::State& state) {
  std::vector<std::uint8_t> wire;
  auto views = history_epoch_views(wire);
  collect::SketchHistoryStore store;
  feed_history(store, views, 0, kHistEpochs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.window_fleet(kHistEpochs - kHistWindow, kHistEpochs - 1));
  }
}
BENCHMARK(BM_HistoryWindowFleet);

void BM_HistoryWindowFlow(benchmark::State& state) {
  std::vector<std::uint8_t> wire;
  auto views = history_epoch_views(wire);
  collect::SketchHistoryStore store;
  feed_history(store, views, 0, kHistEpochs);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& key = views[i++ % kHistFlows].key;
    benchmark::DoNotOptimize(
        store.window_flow_quantile(kHistEpochs - kHistWindow, kHistEpochs - 1, key, 0.99));
  }
}
BENCHMARK(BM_HistoryWindowFlow);

// Steady-state tee cost per record: the raw tier is full, so every epoch
// also folds its oldest raw epoch into the mid tier.
void BM_HistoryIngestViews(benchmark::State& state) {
  std::vector<std::uint8_t> wire;
  auto views = history_epoch_views(wire);
  collect::SketchHistoryStore store;
  feed_history(store, views, 0, kHistEpochs);
  std::uint32_t epoch = kHistEpochs;
  for (auto _ : state) feed_history(store, views, epoch++, 1);
  state.SetItemsProcessed(state.iterations() * kHistRecordsPerEpoch);
}
BENCHMARK(BM_HistoryIngestViews);

// The transport latency floor under the pipeline bench: one coordinator
// kStats round trip over a Unix socket to an agent serving from its own
// run() thread (collector_daemon's shape). Wall time per round trip: the
// coordinator mostly blocks waiting for the reply.
void BM_UnixSocketQueryRoundTrip(benchmark::State& state) {
  const auto address = transport::SocketAddress::unix_path(
      (std::filesystem::temp_directory_path() /
       ("rlir_micro_rtt_" + std::to_string(::getpid()) + ".sock"))
          .string());
  transport::CollectorAgent agent;
  agent.set_listener(std::make_unique<transport::SocketListener>(address));
  std::atomic<bool> stop{false};
  std::thread serve([&] { agent.run(stop); });
  {
    transport::QueryCoordinator coord;
    coord.add_agent([address] { return transport::connect_to(address); });
    for (auto _ : state) benchmark::DoNotOptimize(coord.fleet_stats());
    if (coord.stats().agent_failures != 0) state.SkipWithError("a round trip failed");
  }
  stop.store(true);
  serve.join();
}
BENCHMARK(BM_UnixSocketQueryRoundTrip)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
