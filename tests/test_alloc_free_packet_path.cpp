// Zero-allocation guard for the per-packet RLIR path.
//
// Demux classification and steady-state receive-and-export run once per tap
// packet; a heap allocation there costs more than the interpolation itself.
// This binary replaces global operator new with a counting one (which is why
// it is its own executable) and asserts that 10k packets through each stage
// allocate nothing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "collect/exporter.h"
#include "common/rng.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "timebase/clock.h"
#include "topo/ecmp.h"
#include "topo/fattree.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every non-aligned form, nothrow included: a sanitizer runtime supplies any
// form left out, and its blocks must not reach the free() below.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rlir::rlir {
namespace {

constexpr int kPackets = 10'000;

/// Heap allocations made while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  body();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

net::Packet regular_packet(const net::FiveTuple& key) {
  net::Packet p;
  p.key = key;
  p.kind = net::PacketKind::kRegular;
  return p;
}

/// A flow from a random host under `origin` to a random host under `dst_tor`.
net::FiveTuple random_flow(const topo::FatTree& topo, topo::NodeId origin,
                           topo::NodeId dst_tor, common::Xoshiro256& rng) {
  net::FiveTuple key;
  key.src = topo.host_address(origin, static_cast<int>(rng.uniform_u64(200)));
  key.dst = topo.host_address(dst_tor, static_cast<int>(rng.uniform_u64(200)));
  key.src_port = static_cast<std::uint16_t>(rng.next());
  key.dst_port = static_cast<std::uint16_t>(rng.next());
  return key;
}

/// Packets from every ToR of the fabric to `dst_tor`, origin chosen at random.
std::vector<net::Packet> fabric_packets(const topo::FatTree& topo, topo::NodeId dst_tor,
                                        std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto pods = static_cast<std::uint64_t>(topo.pods());
  const auto tors = static_cast<std::uint64_t>(topo.tors_per_pod());
  std::vector<net::Packet> packets;
  packets.reserve(kPackets);
  for (int i = 0; i < kPackets; ++i) {
    const topo::NodeId origin = topo.tor(static_cast<int>(rng.uniform_u64(pods)),
                                         static_cast<int>(rng.uniform_u64(tors)));
    packets.push_back(regular_packet(random_flow(topo, origin, dst_tor, rng)));
  }
  return packets;
}

TEST(AllocFreePacketPath, PrefixDemuxClassify) {
  const topo::FatTree topo(8);
  PrefixDemux demux;
  for (int pod = 0; pod < topo.pods(); ++pod) {
    for (int t = 0; t < topo.tors_per_pod(); ++t) {
      demux.add_origin(topo.host_prefix(topo.tor(pod, t)),
                       static_cast<net::SenderId>(pod * topo.tors_per_pod() + t));
    }
  }
  auto packets = fabric_packets(topo, topo.tor(0, 0), 1);
  packets[7].key.src = net::Ipv4Address(192, 168, 0, 1);  // no rule: nullopt path

  int classified = 0;
  const std::uint64_t allocs = allocations_during([&] {
    for (const net::Packet& p : packets) classified += demux.classify(p) ? 1 : 0;
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(classified, kPackets - 1);
}

TEST(AllocFreePacketPath, ReverseEcmpDemuxClassify) {
  const topo::FatTree topo(8);
  const topo::NodeId receiver = topo.tor(topo.pods() - 1, 0);
  const topo::Crc32EcmpHasher crc;
  const topo::JenkinsEcmpHasher jenkins;
  const topo::XorFoldEcmpHasher xorfold;
  const auto packets = fabric_packets(topo, receiver, 2);
  for (const topo::EcmpHasher* hasher :
       std::array<const topo::EcmpHasher*, 3>{&crc, &jenkins, &xorfold}) {
    ReverseEcmpDemux demux(&topo, hasher, receiver);
    for (int c = 0; c < topo.core_count(); ++c) {
      demux.set_sender_at_core(c, static_cast<net::SenderId>(100 + c));
    }
    for (int t = 0; t < topo.tors_per_pod(); ++t) {
      demux.add_same_pod_origin(topo.host_prefix(topo.tor(receiver.pod, t)),
                                static_cast<net::SenderId>(t));
    }

    int classified = 0;
    const std::uint64_t allocs = allocations_during([&] {
      for (const net::Packet& p : packets) classified += demux.classify(p) ? 1 : 0;
    });
    EXPECT_EQ(allocs, 0u) << hasher->name();
    EXPECT_EQ(classified, kPackets) << hasher->name();
  }
}

// Steady state: the second pass replays the first one's packets, shifted in
// time, through a receiver and exporter that have already seen every flow,
// sender stream and delay. Each pass starts and ends with one reference per
// sender, so the second pass interpolates exactly the first one's intervals
// and every estimate lands in a sketch bin that already exists.
TEST(AllocFreePacketPath, RlirReceiverOnPacketWithExporter) {
  const topo::FatTree topo(4);
  const topo::NodeId receiver_tor = topo.tor(3, 0);
  const topo::Crc32EcmpHasher hasher;
  ReverseEcmpDemux demux(&topo, &hasher, receiver_tor);
  std::vector<net::SenderId> senders;
  for (int c = 0; c < topo.core_count(); ++c) {
    senders.push_back(static_cast<net::SenderId>(100 + c));
    demux.set_sender_at_core(c, senders.back());
  }
  senders.push_back(50);
  demux.add_same_pod_origin(topo.host_prefix(topo.tor(3, 1)), 50);

  common::Xoshiro256 rng(3);
  std::vector<net::FiveTuple> flows;
  for (int f = 0; f < 48; ++f) {
    const topo::NodeId origin = f % 6 == 0 ? topo.tor(3, 1) : topo.tor(f % 3, f % 2);
    flows.push_back(random_flow(topo, origin, receiver_tor, rng));
  }

  // One pass: references from every sender at both ends, and one every 20
  // packets in between; reference delays cycle so estimates really vary.
  std::vector<net::Packet> pass;
  std::uint64_t seq = 0;
  auto reference = [&](net::SenderId id) {
    net::Packet p = net::make_reference_packet(id, {}, {}, seq);
    p.ref_stamp = timebase::TimePoint(-3000 - static_cast<std::int64_t>(seq % 7) * 400);
    ++seq;
    return p;
  };
  for (const net::SenderId id : senders) pass.push_back(reference(id));
  while (pass.size() + senders.size() < static_cast<std::size_t>(kPackets)) {
    if (pass.size() % 20 == 0) {
      pass.push_back(reference(senders[seq % senders.size()]));
    } else {
      pass.push_back(regular_packet(flows[rng.uniform_u64(flows.size())]));
    }
  }
  for (const net::SenderId id : senders) pass.push_back(reference(id));
  ASSERT_EQ(pass.size(), static_cast<std::size_t>(kPackets));

  const timebase::PerfectClock clock;
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock, &demux);
  collect::EstimateExporter exporter(collect::ExporterConfig{});
  exporter.attach(receiver);

  constexpr std::int64_t kGapNs = 700;
  const std::int64_t pass_span = kGapNs * (kPackets + 1);
  auto replay = [&](std::int64_t offset) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      net::Packet p = pass[i];
      const timebase::TimePoint at(offset + static_cast<std::int64_t>(i) * kGapNs);
      if (p.is_reference()) p.ref_stamp = timebase::TimePoint(at.ns() + p.ref_stamp.ns());
      receiver.on_packet(p, at);
    }
  };

  replay(0);  // warm-up: creates streams, flow entries and sketch bins
  const std::uint64_t observed = exporter.estimates_observed();
  const std::uint64_t allocs = allocations_during([&] { replay(pass_span); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(receiver.unclassified_packets(), 0u);
  EXPECT_EQ(exporter.flow_count(), flows.size());
  EXPECT_EQ(exporter.estimates_observed() - observed, observed);
}

}  // namespace
}  // namespace rlir::rlir
