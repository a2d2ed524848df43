// End-to-end pipeline benchmark: FatTreeSim traffic recorded at the RLIR
// taps, replayed into RlirReceiver + EstimateExporter on EpochScheduler
// epochs, shipped by three CollectorClients over Unix sockets to one
// CollectorAgent on its own thread, and read back through one
// QueryCoordinator connection.
//
//   pipeline_bench --workload elephant|mice|live_ops --seed N --seconds S
//                  --trace 0|1 [--out-dir DIR] [--tiny]
//
// Setup (timed as setup_s) simulates once per repeat and records every
// vantage's arrival stream; the simulator never runs in the timed phase.
// Every layer is timed from outside, around its public calls. The last
// stdout line is the result object run.py validates.
#include <pthread.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/exporter.h"
#include "collect/fleet.h"
#include "collect/history.h"
#include "collect/sharded_collector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "rlir/segment_truth.h"
#include "rlir/sender_agent.h"
#include "sim/tap.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"
#include "transport/agent.h"
#include "transport/client.h"
#include "transport/coordinator.h"
#include "transport/socket.h"

// --- Heap accounting: every allocation in the process, all threads. --------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pb {

using namespace ::rlir;
namespace rr = ::rlir::rlir;
using timebase::Duration;
using timebase::TimePoint;

// --- Clocks and process counters ---------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// read+write syscalls of the whole process so far (/proc/self/io).
std::uint64_t io_syscalls() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  std::uint64_t total = 0;
  while (in >> key >> value) {
    if (key == "syscr:" || key == "syscw:") total += value;
  }
  return total;
}

/// Host CPU steal over busy+steal time, machine-wide (/proc/stat): how much
/// of the run the hypervisor gave to other guests.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;

  static CpuTicks read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    in >> cpu;
    for (auto& x : v) in >> x;
    // user nice system idle iowait irq softirq steal
    return CpuTicks{v[0] + v[1] + v[2] + v[5] + v[6], v[7]};
  }
};

struct ProcCounters {
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t syscalls = 0;

  static ProcCounters read() {
    ProcCounters c;
    c.syscalls = io_syscalls();
    c.allocs = g_allocs.load(std::memory_order_relaxed);
    c.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    return c;
  }
  ProcCounters operator-(const ProcCounters& o) const {
    return {allocs - o.allocs, alloc_bytes - o.alloc_bytes, syscalls - o.syscalls};
  }
  ProcCounters& operator+=(const ProcCounters& o) {
    allocs += o.allocs;
    alloc_bytes += o.alloc_bytes;
    syscalls += o.syscalls;
    return *this;
  }
};

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median_of(const std::vector<double>& v) { return quantile_of(v, 0.5); }

/// Mean of the middle half of the samples (the quarter at each end dropped).
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// p99 that a burst of host preemption in one part of a run cannot set on
/// its own: with n >= 3000 samples, the median of the p99s of the
/// floor(n/1000) consecutive blocks (each >= 1000 samples, so >= 10 beyond
/// its p99); otherwise the plain p99.
double robust_p99(const std::vector<double>& samples) {
  const std::size_t blocks = samples.size() / 1000;
  if (blocks < 3) return quantile_of(samples, 0.99);
  std::vector<double> p99s;
  const std::size_t per = samples.size() / blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per);
    const auto last = b + 1 == blocks ? samples.end() : first + static_cast<std::ptrdiff_t>(per);
    p99s.push_back(quantile_of(std::vector<double>(first, last), 0.99));
  }
  return median_of(p99s);
}

// --- Checks ------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

// --- Outside-only spans ------------------------------------------------------

/// Main-thread layer a span is charged to.
enum Layer : int {
  kReplay = 0,   // RlirReceiver::on_packet chunk (+ exporter observe it triggers)
  kFlush,        // receivers' flush() in the epoch hook
  kSeal,         // EpochScheduler::advance_to (self = exporter drain)
  kSubmit,       // CollectorClient::submit + flush (encode, frame, CRC)
  kPump,         // CollectorClient::pump
  kWait,         // backpressure: pumping until the send buffer drains
  kCoord,        // coordinator queries and freshness polls
  kIdle,         // paced generator sleeping until the next due event
  kLayerCount
};

const char* layer_name(int layer) {
  static const char* const kNames[kLayerCount] = {"replay", "flush", "seal", "submit",
                                                  "pump",   "wait",  "coord", "idle"};
  return kNames[layer];
}

/// Spans kept in memory and written as a Chrome trace at the end; self time
/// per layer is accumulated as spans close (duration minus child spans).
class Tracer {
 public:
  struct Record {
    int layer;
    std::int64_t start;
    std::int64_t end;
  };

  bool enabled = false;

  void begin(int layer) {
    if (!enabled) return;
    stack_.push_back(Open{layer, now_ns(), 0});
  }
  void end() {
    if (!enabled || stack_.empty()) return;
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t stop = now_ns();
    const std::int64_t dur = stop - open.start;
    self_[open.layer] += dur - open.child;
    total_[open.layer] += dur;
    if (!stack_.empty()) stack_.back().child += dur;
    if (records_.size() < kMaxRecords) {
      records_.push_back(Record{open.layer, open.start, stop});
    }
  }

  [[nodiscard]] std::int64_t self(int layer) const { return self_[layer]; }
  [[nodiscard]] std::int64_t total(int layer) const { return total_[layer]; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

 private:
  static constexpr std::size_t kMaxRecords = 1u << 20;
  struct Open {
    int layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::int64_t self_[kLayerCount] = {};
  std::int64_t total_[kLayerCount] = {};
};

class Span {
 public:
  Span(Tracer& tracer, int layer) : tracer_(tracer) { tracer_.begin(layer); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace pb

namespace pb {

// --- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  /// Open loop at wall-clock speed (live_ops) vs closed loop, as fast as
  /// possible (elephant, mice).
  bool paced = false;
  /// collector_daemon --history.
  bool history = false;
  Duration epoch = Duration::milliseconds(5);
  /// Synthetic trace horizon per (source ToR, destination ToR) pair.
  Duration duration = Duration::milliseconds(50);
  double offered_bps = 1e9;
  double mean_flow_packets = 15.0;
  double pareto_alpha = 1.25;
  std::uint64_t max_flow_packets = 50'000;
  Duration mean_packet_gap = Duration::microseconds(500);
  double burst_probability = 0.5;
  Duration burst_gap = Duration::microseconds(2);
  /// When > 0: exactly this many long flows per pair, all active for the
  /// whole horizon, instead of the synthetic generator's Poisson arrivals.
  int flows_per_pair = 0;
};

WorkloadSpec make_spec(const std::string& name, bool tiny) {
  WorkloadSpec s;
  s.name = name;
  if (name == "elephant") {
    // A fixed set of long, heavy flows in a loaded fabric with long epochs:
    // a few hundred packets per flow per epoch at each vantage, so records
    // per tap packet stay far below 0.01 and per-packet RLIR work dominates.
    // A fixed flow count keeps the load regime the same across seeds.
    s.epoch = Duration::milliseconds(4);
    s.duration = Duration::milliseconds(tiny ? 12 : 40);
    s.flows_per_pair = 12;
    s.mean_packet_gap = Duration::microseconds(32);
    s.burst_probability = 0.5;
    s.burst_gap = Duration::microseconds(1);
  } else if (name == "mice") {
    // Very short flows with fresh keys and short epochs: close to one record
    // per few tap packets, so the collection tier does the work.
    s.epoch = Duration::milliseconds(1);
    s.duration = Duration::milliseconds(tiny ? 20 : 40);
    s.offered_bps = 1.2e9;
    s.mean_flow_packets = 3.0;
    s.pareto_alpha = 1.5;
    s.max_flow_packets = 64;
    s.mean_packet_gap = Duration::microseconds(1500);
    s.burst_probability = 0.1;
    s.burst_gap = Duration::microseconds(2);
  } else if (name == "live_ops") {
    // Paced replay (looped recording) at wall-clock speed with the query mix
    // running beside ingest on a history-enabled agent. A fixed set of
    // steady flows: the agent's work per epoch, which sets the epoch lag,
    // must not swing with the seed's flow count. 25 ms epochs: a stats
    // answer costs the agent more with every epoch it has seen, and fewer
    // epochs per run keep the freshness polls from loading it ever harder.
    s.paced = true;
    s.history = true;
    s.epoch = Duration::milliseconds(25);
    s.duration = Duration::milliseconds(tiny ? 50 : 100);
    s.flows_per_pair = 64;
    s.mean_packet_gap = Duration::microseconds(1500);
    s.burst_probability = 0.3;
    s.burst_gap = Duration::microseconds(2);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

// --- Fabric: topology, senders, demuxes (outlives every replica) ------------

constexpr int kFatTreeK = 4;
constexpr std::size_t kVantages = 6;  // 4 cores + 2 destination ToRs
constexpr std::size_t kGroups = 3;    // one exporter connection per group
constexpr std::size_t kShards = 8;    // collector_daemon default

std::size_t group_of(collect::LinkId link) { return std::min<std::size_t>(link / 2, kGroups - 1); }

struct Fabric {
  topo::FatTree topo{kFatTreeK};
  topo::Crc32EcmpHasher hasher;
  timebase::PerfectClock clock;
  std::vector<topo::NodeId> sources;
  std::vector<topo::NodeId> destinations;
  rr::PrefixDemux up_demux;
  std::vector<std::unique_ptr<rr::ReverseEcmpDemux>> down_demuxes;
  /// Vantage i: node and the demux its receiver uses (link id == i).
  std::vector<topo::NodeId> vantage_nodes;
  std::vector<const rr::Demultiplexer*> vantage_demux;

  Fabric() {
    sources = {topo.tor(0, 0), topo.tor(0, 1)};
    destinations = {topo.tor(3, 0), topo.tor(3, 1)};
    for (std::size_t i = 0; i < sources.size(); ++i) {
      up_demux.add_origin(topo.host_prefix(sources[i]), static_cast<net::SenderId>(1 + i));
    }
    for (const auto& dst : destinations) {
      down_demuxes.push_back(std::make_unique<rr::ReverseEcmpDemux>(&topo, &hasher, dst));
    }
    for (int c = 0; c < topo.core_count(); ++c) {
      for (auto& demux : down_demuxes) {
        demux->set_sender_at_core(c, static_cast<net::SenderId>(10 + c));
      }
    }
    for (const auto& core : topo.cores()) {
      vantage_nodes.push_back(core);
      vantage_demux.push_back(&up_demux);
    }
    for (std::size_t i = 0; i < destinations.size(); ++i) {
      vantage_nodes.push_back(destinations[i]);
      vantage_demux.push_back(down_demuxes[i].get());
    }
  }
};

struct TapPacket {
  net::Packet packet;  // packet.ts is the arrival instant
  std::uint8_t vantage;
};

/// Per-flow truth, combining the upstream (source ToR -> core) and the
/// downstream (core -> destination ToR) segments the way the collector merges
/// the core and destination-ToR vantages of one flow.
struct FlowTruth {
  double sum_ns = 0.0;
  std::uint64_t count = 0;
  std::uint64_t delivered = 0;  // packets that reached the destination ToR
};

struct Recording {
  std::vector<TapPacket> packets;  // global arrival order, as the taps saw them
  std::int64_t loop_span_ns = 0;   // epochs_per_loop * epoch
  std::uint32_t epochs_per_loop = 0;
  rli::FlowStatsMap insim_estimates;  // in-sim FleetCollector, same seed
  std::unordered_map<net::FiveTuple, FlowTruth> truth;
  std::uint64_t fingerprint = 0;
};

class RecordingTap final : public sim::PacketTap {
 public:
  RecordingTap(std::vector<TapPacket>* out, std::uint8_t vantage) : out_(out), vantage_(vantage) {}
  void on_packet(const net::Packet& packet, TimePoint arrival) override {
    TapPacket tp{packet, vantage_};
    tp.packet.ts = arrival;
    out_->push_back(tp);
  }

 private:
  std::vector<TapPacket>* out_;
  std::uint8_t vantage_;
};

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Traffic stops this long before the horizon, so every recording ends
/// inside its last epoch and a loop spans exactly duration / epoch epochs.
constexpr Duration kHorizonMargin = Duration::milliseconds(1);

/// Injects spec.flows_per_pair flows from `src` to `dst`, each starting in
/// the first 100us and sending until the horizon (less the margin): exponential gaps with
/// burst_probability back-to-back bursts, and the synthetic generator's
/// tri-modal packet-size mix.
void inject_long_flows(topo::FatTreeSim& sim, const Fabric& fabric, const WorkloadSpec& spec,
                       topo::NodeId src, topo::NodeId dst, std::uint64_t seed,
                       std::uint64_t first_seq) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto src_pool = fabric.topo.host_prefix(src);
  const auto dst_pool = fabric.topo.host_prefix(dst);
  std::uint64_t seq = first_seq;
  for (int f = 0; f < spec.flows_per_pair; ++f) {
    net::Packet p;
    p.key.src = src_pool.address_at(rng() % src_pool.size());
    p.key.dst = dst_pool.address_at(rng() % dst_pool.size());
    p.key.src_port = static_cast<std::uint16_t>(1024 + rng() % 64512);
    p.key.dst_port = 443;
    p.kind = net::PacketKind::kRegular;
    std::int64_t t = static_cast<std::int64_t>(unit(rng) * 100'000.0);
    while (t < spec.duration.ns() - kHorizonMargin.ns()) {
      const double u = unit(rng);
      p.size_bytes = u < 0.4 ? 40 : (u < 0.6 ? 576 : 1500);
      p.ts = TimePoint::zero() + Duration::nanoseconds(t);
      p.injected_at = p.ts;
      p.seq = seq++;
      sim.inject_from_host(p);
      if (unit(rng) < spec.burst_probability) {
        t += spec.burst_gap.ns();
      } else {
        t += 1 + static_cast<std::int64_t>(-std::log(1.0 - unit(rng)) *
                                           static_cast<double>(spec.mean_packet_gap.ns()));
      }
    }
  }
}

/// Runs the fabric once and records everything the timed phase replays.
std::unique_ptr<Recording> simulate(Fabric& fabric, const WorkloadSpec& spec, std::uint64_t seed) {
  auto rec = std::make_unique<Recording>();
  topo::FatTreeSim sim(&fabric.topo, topo::FatTreeSimConfig{}, &fabric.hasher);

  const auto cores = fabric.topo.cores();
  std::vector<std::unique_ptr<rr::TorSenderAgent>> tor_senders;
  for (std::size_t i = 0; i < fabric.sources.size(); ++i) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(1 + i);
    cfg.static_gap = 50;
    tor_senders.push_back(std::make_unique<rr::TorSenderAgent>(cfg, &fabric.clock, cores));
    sim.add_agent(fabric.sources[i], tor_senders.back().get());
  }
  std::vector<std::unique_ptr<rr::CoreSenderAgent>> core_senders;
  for (int c = 0; c < fabric.topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(
        std::make_unique<rr::CoreSenderAgent>(cfg, &fabric.clock, fabric.destinations));
    sim.add_agent(fabric.topo.core(c), core_senders.back().get());
  }

  // The in-sim reference: a FleetCollector on the same taps and epochs.
  collect::FleetCollector fleet(collect::FleetConfig{}, &fabric.clock);
  fleet.set_batch_sink([](std::uint32_t, const std::vector<collect::EstimateRecord>&) {});
  std::vector<std::unique_ptr<RecordingTap>> taps;
  for (std::size_t v = 0; v < kVantages; ++v) {
    fleet.deploy(sim, fabric.vantage_nodes[v], fabric.vantage_demux[v]);
    taps.push_back(std::make_unique<RecordingTap>(&rec->packets, static_cast<std::uint8_t>(v)));
    sim.add_arrival_tap(fabric.vantage_nodes[v], taps.back().get());
  }

  rr::SegmentTruth up;
  rr::SegmentTruth down;
  for (const auto& src : fabric.sources) sim.add_arrival_tap(src, &up.entry_tap());
  for (const auto& core : cores) {
    sim.add_arrival_tap(core, &up.exit_tap());
    sim.add_arrival_tap(core, &down.entry_tap());
  }
  for (const auto& dst : fabric.destinations) sim.add_arrival_tap(dst, &down.exit_tap());

  std::uint64_t pair = 0;
  for (const auto& src : fabric.sources) {
    for (const auto& dst : fabric.destinations) {
      if (spec.flows_per_pair > 0) {
        inject_long_flows(sim, fabric, spec, src, dst, mix64(seed * 16 + pair) | 1,
                          (pair + 1) * 1'000'000'000ULL);
      } else {
        trace::SyntheticConfig cfg;
        cfg.duration = spec.duration - kHorizonMargin;
        cfg.offered_bps = spec.offered_bps;
        cfg.mean_flow_packets = spec.mean_flow_packets;
        cfg.pareto_alpha = spec.pareto_alpha;
        cfg.max_flow_packets = spec.max_flow_packets;
        cfg.mean_packet_gap = spec.mean_packet_gap;
        cfg.burst_probability = spec.burst_probability;
        cfg.burst_gap = spec.burst_gap;
        cfg.seed = mix64(seed * 16 + pair) | 1;
        cfg.src_pool = fabric.topo.host_prefix(src);
        cfg.dst_pool = fabric.topo.host_prefix(dst);
        cfg.first_seq = (pair + 1) * 1'000'000'000ULL;
        trace::SyntheticTraceGenerator gen(cfg);
        while (auto pkt = gen.next()) sim.inject_from_host(*pkt);
      }
      ++pair;
    }
  }

  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = spec.epoch;
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);
  TimePoint t = TimePoint::zero();
  while (sim.events_pending()) {
    t += spec.epoch;
    sim.run_until(t);
    scheduler.advance_to(t);
  }
  scheduler.advance_to(sim.now() + spec.epoch);

  rec->insim_estimates = fleet.unsharded_estimates();
  const std::int64_t last_ts = rec->packets.empty() ? 0 : rec->packets.back().packet.ts.ns();
  rec->epochs_per_loop =
      static_cast<std::uint32_t>((last_ts + spec.epoch.ns()) / spec.epoch.ns());
  rec->loop_span_ns = static_cast<std::int64_t>(rec->epochs_per_loop) * spec.epoch.ns();

  std::uint64_t fp = rec->packets.size();
  for (const auto& tp : rec->packets) {
    fp = mix64(fp ^ tp.packet.seq ^ (static_cast<std::uint64_t>(tp.packet.ts.ns()) << 3) ^
               tp.vantage);
  }
  rec->fingerprint = fp;

  for (const auto& [key, stats] : up.per_flow()) {
    auto& t2 = rec->truth[key];
    t2.sum_ns += stats.sum();
    t2.count += stats.count();
  }
  for (const auto& [key, stats] : down.per_flow()) {
    auto& t2 = rec->truth[key];
    t2.sum_ns += stats.sum();
    t2.count += stats.count();
    t2.delivered += stats.count();
  }
  return rec;
}

}  // namespace pb

namespace pb {

// --- Production instruments (traced runs) ------------------------------------

/// One registry + span ring shared by every component of a traced replica,
/// so the program's own rlir_stage_ns histograms sit beside the outside
/// timings.
struct ProdInstruments {
  obs::MetricsRegistry registry;
  obs::SpanRecorder spans{1u << 14};
};

obs::Instruments instruments_for(ProdInstruments* prod, const std::string& id) {
  obs::Instruments in;
  if (prod != nullptr) {
    in.registry = &prod->registry;
    in.spans = &prod->spans;
    in.id = id;
  }
  return in;
}

// --- Agent, connections, coordinator -----------------------------------------

/// One CollectorAgent on its own thread behind a Unix socket (collector_daemon
/// defaults: 8 shards, an always-on span ring), three exporter connections and
/// one coordinator connection.
class AgentHarness {
 public:
  AgentHarness(const WorkloadSpec& spec, const std::string& socket_path, ProdInstruments* prod)
      : address_(transport::SocketAddress::unix_path(socket_path)) {
    transport::CollectorAgentConfig acfg;
    acfg.collector.shard_count = kShards;
    acfg.enable_history = spec.history;
    acfg.instruments = instruments_for(prod, "agent");
    acfg.instruments.spans = prod != nullptr ? &prod->spans : &daemon_spans_;
    agent_ = std::make_unique<transport::CollectorAgent>(acfg);
    agent_->set_listener(std::make_unique<transport::SocketListener>(address_));
    thread_ = std::thread([this] {
      try {
        agent_->run(stop_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
    pthread_getcpuclockid(thread_.native_handle(), &agent_clock_);
    try {
      for (std::size_t g = 0; g < kGroups; ++g) {
        transport::CollectorClientConfig ccfg;
        ccfg.instruments = instruments_for(prod, "client" + std::to_string(g));
        clients_.push_back(std::make_unique<transport::CollectorClient>(
            ccfg, [addr = address_] { return transport::connect_to(addr); }));
      }
      transport::QueryCoordinatorConfig qcfg;
      qcfg.instruments = instruments_for(prod, "coord");
      coord_ = std::make_unique<transport::QueryCoordinator>(qcfg);
      coord_->add_agent([addr = address_] { return transport::connect_to(addr); });
      // Ready when the coordinator's round trip lands.
      (void)coord_->fleet_stats();
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~AgentHarness() { shutdown(); }

  AgentHarness(const AgentHarness&) = delete;
  AgentHarness& operator=(const AgentHarness&) = delete;

  [[nodiscard]] transport::CollectorAgent& agent() { return *agent_; }
  [[nodiscard]] transport::CollectorClient& client(std::size_t g) { return *clients_[g]; }
  [[nodiscard]] transport::QueryCoordinator& coord() { return *coord_; }
  [[nodiscard]] std::int64_t agent_cpu_ns() const { return cpu_ns(agent_clock_); }
  /// Stops the agent thread; returns what it threw, if anything.
  std::string stop() {
    shutdown();
    return error_;
  }

 private:
  void shutdown() {
    coord_.reset();
    clients_.clear();
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  transport::SocketAddress address_;
  obs::SpanRecorder daemon_spans_;
  std::unique_ptr<transport::CollectorAgent> agent_;
  std::atomic<bool> stop_{false};
  std::string error_;
  clockid_t agent_clock_{};
  std::vector<std::unique_ptr<transport::CollectorClient>> clients_;
  std::unique_ptr<transport::QueryCoordinator> coord_;
  std::thread thread_;
};

// --- Replica: fresh receivers, exporters, and a scheduler ---------------------

/// What a sealed batch is handed to (clients in timed passes, the in-process
/// oracle in the oracle pass).
using BatchSink = collect::EpochScheduler::BatchSink;

struct Replica {
  std::vector<std::unique_ptr<rr::RlirReceiver>> receivers;
  std::vector<std::unique_ptr<collect::EstimateExporter>> exporters;
  std::unique_ptr<collect::EpochScheduler> scheduler;

  Replica(const Replica&) = delete;  // the epoch hook holds `this`
  Replica& operator=(const Replica&) = delete;

  Replica(Fabric& fabric, const WorkloadSpec& spec, Tracer& tracer, BatchSink sink,
          ProdInstruments* prod) {
    for (std::size_t v = 0; v < kVantages; ++v) {
      receivers.push_back(std::make_unique<rr::RlirReceiver>(
          rli::ReceiverConfig{}, &fabric.clock, fabric.vantage_demux[v]));
      exporters.push_back(std::make_unique<collect::EstimateExporter>(collect::ExporterConfig{
          common::LatencySketchConfig{}, static_cast<collect::LinkId>(v)}));
      exporters.back()->attach(*receivers.back());
    }
    collect::EpochSchedulerConfig cfg;
    cfg.period = spec.epoch;
    cfg.instruments = instruments_for(prod, "scheduler");
    scheduler = std::make_unique<collect::EpochScheduler>(cfg);
    scheduler->add_epoch_hook([this, &tracer](std::uint32_t) {
      Span span(tracer, kFlush);
      for (auto& r : receivers) r->flush();
    });
    for (auto& e : exporters) scheduler->add_exporter(e.get());
    scheduler->add_sink(std::move(sink));
  }

  [[nodiscard]] rli::FlowStatsMap merged_estimates() const {
    rli::FlowStatsMap merged;
    for (const auto& r : receivers) {
      for (const auto& [key, stats] : r->merged_estimates()) merged[key].merge(stats);
    }
    return merged;
  }
  [[nodiscard]] std::uint64_t estimates() const {
    std::uint64_t n = 0;
    for (const auto& e : exporters) n += e->estimates_observed();
    return n;
  }
  [[nodiscard]] std::uint64_t unclassified() const {
    std::uint64_t n = 0;
    for (const auto& r : receivers) n += r->unclassified_packets();
    return n;
  }
  [[nodiscard]] std::uint64_t classified() const {
    std::uint64_t n = 0;
    for (const auto& r : receivers) n += r->classified_packets();
    return n;
  }
};

/// Walks the recording (looped, time-shifted by loop_span per loop) into a
/// replica's receivers, and seals epochs on the sim-time grid. Epoch e covers
/// (e*epoch, (e+1)*epoch]; every packet at or before a boundary is replayed
/// before that boundary seals, exactly as FatTreeSim::run_until +
/// EpochScheduler::advance_to order them in the simulation.
class Replayer {
 public:
  Replayer(const Recording& rec, Replica& replica, std::int64_t epoch_ns)
      : rec_(rec), replica_(replica), epoch_ns_(epoch_ns) {}

  [[nodiscard]] std::int64_t next_boundary() const {
    return static_cast<std::int64_t>(next_epoch_ + 1) * epoch_ns_;
  }
  [[nodiscard]] std::uint32_t next_epoch() const { return next_epoch_; }
  [[nodiscard]] std::int64_t next_packet_ts() const {
    if (rec_.packets.empty()) return INT64_MAX;
    if (index_ >= rec_.packets.size()) {  // this loop is spent; the next one starts over
      return rec_.packets.front().packet.ts.ns() + (loop_ + 1) * rec_.loop_span_ns;
    }
    return rec_.packets[index_].packet.ts.ns() + loop_ * rec_.loop_span_ns;
  }
  [[nodiscard]] std::uint64_t packets_replayed() const { return replayed_; }
  [[nodiscard]] std::uint64_t regular_replayed() const { return regular_; }

  /// Replays up to `max_packets` packets with shifted arrival <= min(limit,
  /// next boundary). Returns how many.
  std::size_t replay(std::int64_t limit_ns, std::size_t max_packets) {
    const std::int64_t limit = std::min(limit_ns, next_boundary());
    std::size_t n = 0;
    const std::size_t size = rec_.packets.size();
    const std::int64_t shift = loop_ * rec_.loop_span_ns;
    while (n < max_packets && index_ < size) {
      const TapPacket& tp = rec_.packets[index_];
      const std::int64_t ts = tp.packet.ts.ns() + shift;
      if (ts > limit) break;
      if (shift == 0) {
        replica_.receivers[tp.vantage]->on_packet(tp.packet, tp.packet.ts);
      } else {
        net::Packet p = tp.packet;
        const Duration d = Duration::nanoseconds(shift);
        p.ts += d;
        p.injected_at += d;
        p.ref_stamp += d;
        replica_.receivers[tp.vantage]->on_packet(p, p.ts);
      }
      if (tp.packet.kind == net::PacketKind::kRegular) ++regular_;
      ++index_;
      ++n;
    }
    replayed_ += n;
    return n;
  }

  /// True once every packet up to the next boundary has been replayed.
  [[nodiscard]] bool boundary_ready() const { return next_packet_ts() > next_boundary(); }

  /// Seals the next epoch (EpochScheduler::advance_to its boundary).
  void seal() {
    replica_.scheduler->advance_to(TimePoint::zero() + Duration::nanoseconds(next_boundary()));
    ++next_epoch_;
    if (next_epoch_ % rec_.epochs_per_loop == 0) {
      ++loop_;
      index_ = 0;
    }
  }

 private:
  const Recording& rec_;
  Replica& replica_;
  std::int64_t epoch_ns_;
  std::size_t index_ = 0;
  std::int64_t loop_ = 0;
  std::uint32_t next_epoch_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t regular_ = 0;
};

}  // namespace pb

namespace pb {

// --- Query plane ---------------------------------------------------------------

enum QueryKindIdx : int {
  kQStats = 0,
  kQFleet,
  kQTopK,
  kQFlowQuantile,
  kQWindowFleet,
  kQWindowFlowQuantile,
  kQueryKinds
};

const char* query_name(int kind) {
  static const char* const kNames[kQueryKinds] = {
      "stats", "fleet", "top_k", "flow_quantile", "window_fleet", "window_flow_quantile"};
  return kNames[kind];
}

constexpr std::size_t kTopK = 10;
constexpr std::uint32_t kWindowEpochs = 8;

struct QueryLog {
  std::vector<double> ms[kQueryKinds];
  std::vector<double> in_order;  // the mix, every kind, in completion order
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;

  void add(int kind, double latency_ms) {
    ms[kind].push_back(latency_ms);
    in_order.push_back(latency_ms);
    ++issued;
  }
  /// Freshness polls count as attempts; their latency is the epoch lag.
  void add_poll() { ++issued; }
  /// Each kind's median latency, averaged over the kinds that ran: every
  /// kind weighs the same however its latencies spread, so the figure does
  /// not jump between the modes of a mixed distribution.
  [[nodiscard]] double mix_ms_p50() const {
    double sum = 0.0;
    int kinds = 0;
    for (const auto& v : ms) {
      if (v.empty()) continue;
      sum += median_of(v);
      ++kinds;
    }
    return kinds > 0 ? sum / kinds : 0.0;
  }
};

/// The freshness poll: kStats queries on the coordinator's connection, sent
/// without blocking the generator. A reply covers every sealed epoch whose
/// cumulative record count it shows ingested; the epoch's lag is the reply
/// time minus the epoch's due time.
class FreshnessPoller {
 public:
  FreshnessPoller(transport::CollectorClient& client, QueryLog& log) : client_(client), log_(log) {}

  void sealed(std::int64_t due_ns, std::uint64_t cumulative_records) {
    due_.push_back(due_ns);
    cumulative_.push_back(cumulative_records);
  }
  [[nodiscard]] bool outstanding() const { return outstanding_; }
  [[nodiscard]] bool all_covered() const { return covered_ == due_.size(); }
  [[nodiscard]] std::uint64_t ingested() const { return ingested_; }

  void send() {
    transport::Query q;
    q.kind = transport::QueryKind::kStats;
    client_.send_query(q);
    outstanding_ = true;
  }

  /// Non-blocking: true when a reply was handled.
  bool service() {
    if (!outstanding_) return false;
    client_.pump();
    std::optional<transport::QueryReply> reply;
    try {
      reply = client_.poll_reply();
    } catch (const std::exception&) {
      client_.abandon_query();
    }
    if (!reply.has_value()) {
      if (!client_.query_outstanding()) {  // connection lost under the query
        outstanding_ = false;
        log_.failed += 1;
        log_.issued += 1;
      }
      return false;
    }
    outstanding_ = false;
    const std::int64_t now = now_ns();
    log_.add_poll();
    cover(reply->stats.records_ingested, now);
    return true;
  }

  /// Blocks until the outstanding poll (if any) is answered or given up.
  void finish() {
    for (int round = 0; outstanding_ && round < 200'000; ++round) {
      if (!service() && outstanding_) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (outstanding_) {
      client_.abandon_query();
      outstanding_ = false;
      log_.failed += 1;
      log_.issued += 1;
    }
  }

  void cover(std::uint64_t ingested, std::int64_t now) {
    ingested_ = std::max(ingested_, ingested);
    while (covered_ < due_.size() && cumulative_[covered_] <= ingested_) {
      lag_ms.push_back(static_cast<double>(now - due_[covered_]) / 1e6);
      ++covered_;
    }
  }

  std::vector<double> lag_ms;

 private:
  transport::CollectorClient& client_;
  QueryLog& log_;
  std::vector<std::int64_t> due_;
  std::vector<std::uint64_t> cumulative_;
  std::size_t covered_ = 0;
  std::uint64_t ingested_ = 0;
  bool outstanding_ = false;
};

/// Runs one coordinator query of the fixed mix; returns false on failure.
bool run_query(transport::QueryCoordinator& coord, int kind, const net::FiveTuple& key,
               std::uint32_t last_epoch) {
  const auto failures_before = coord.stats().agent_failures;
  const std::uint32_t first = last_epoch >= kWindowEpochs - 1 ? last_epoch - (kWindowEpochs - 1) : 0;
  switch (kind) {
    case kQStats: (void)coord.fleet_stats(); break;
    case kQFleet: (void)coord.fleet(); break;
    case kQTopK: (void)coord.top_k_ranked(kTopK, 0.99); break;
    case kQFlowQuantile: (void)coord.flow_quantile(key, 0.99); break;
    case kQWindowFleet: (void)coord.window_fleet(first, last_epoch); break;
    case kQWindowFlowQuantile:
      (void)coord.window_flow_quantile(key, 0.99, first, last_epoch);
      break;
    default: break;
  }
  return coord.stats().agent_failures == failures_before;
}

// --- One pass of the pipeline ------------------------------------------------

struct PassResult {
  bool traced = false;
  std::int64_t wall_ns = 0;
  std::uint64_t tap_packets = 0;
  std::uint64_t regular_packets = 0;
  std::uint64_t epochs = 0;
  std::uint64_t records = 0;
  std::uint64_t estimates = 0;
  std::uint64_t classified = 0;
  std::uint64_t unclassified = 0;
  std::int64_t main_cpu_ns = 0;
  std::int64_t agent_cpu_ns = 0;
  ProcCounters proc;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t ingested = 0;
  std::uint64_t protocol_errors = 0;
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  /// The traced portion of the pass (all of a traced closed-loop pass, the
  /// second half of a traced paced pass): denominators for self times.
  std::int64_t tr_wall_ns = 0;
  std::uint64_t tr_packets = 0;
  std::uint64_t tr_records = 0;
  std::uint64_t tr_epochs = 0;
  /// Paced runs: the untraced/traced halves' main-thread cost per packet.
  double untraced_cpu_per_pkt = 0.0;
  double traced_cpu_per_pkt = 0.0;
  [[nodiscard]] double pps() const {
    return wall_ns > 0 ? static_cast<double>(tap_packets) * 1e9 / static_cast<double>(wall_ns) : 0.0;
  }
};

constexpr std::size_t kChunk = 1024;
/// Epochs per paced session (7.5 s at live_ops' 25 ms): past the 192 epochs
/// after which history compaction reaches its coarse tier.
constexpr std::uint32_t kSessionEpochs = 300;
constexpr std::size_t kHighWaterBytes = 1u << 20;

struct PassContext {
  Fabric& fabric;
  const WorkloadSpec& spec;
  const Recording& rec;
  Tracer& tracer;
  ProdInstruments* prod;
  std::vector<net::FiveTuple> query_keys;
};

void pump_all(AgentHarness& h, Tracer& tracer) {
  Span span(tracer, kPump);
  for (std::size_t g = 0; g < kGroups; ++g) h.client(g).pump();
}

void flush_all(AgentHarness& h, Tracer& tracer) {
  Span span(tracer, kSubmit);
  for (std::size_t g = 0; g < kGroups; ++g) h.client(g).flush();
}

/// Pumps until every client is under `limit` queued bytes (the generator's
/// only wait on the collection tier).
void wait_below(AgentHarness& h, Tracer& tracer, std::size_t limit) {
  auto over = [&] {
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (h.client(g).buffered_bytes() > limit || (limit == 0 && h.client(g).coalescing_records() > 0))
        return true;
    }
    return false;
  };
  if (!over()) return;
  Span span(tracer, kWait);
  const std::int64_t give_up = now_ns() + 30'000'000'000LL;
  while (over() && now_ns() < give_up) {
    std::size_t moved = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (limit == 0) h.client(g).flush();
      moved += h.client(g).pump();
    }
    if (moved == 0) std::this_thread::yield();
  }
}

/// Blocks (coordinator fleet_stats) until everything submitted is ingested.
void await_ingest(AgentHarness& h, FreshnessPoller& poller, Tracer& tracer,
                  std::uint64_t submitted, QueryLog& log) {
  Span span(tracer, kCoord);
  poller.finish();
  const std::int64_t give_up = now_ns() + 30'000'000'000LL;
  while (poller.ingested() < submitted && now_ns() < give_up) {
    const auto before = h.coord().stats().agent_failures;
    const auto stats = h.coord().fleet_stats();
    if (h.coord().stats().agent_failures != before) {
      log.failed += 1;
      log.issued += 1;
      continue;
    }
    poller.cover(stats.records_ingested, now_ns());
  }
}

struct ClientTotals {
  std::uint64_t submitted = 0, bytes = 0, frames = 0, shed = 0, reconnects = 0;
};

ClientTotals client_totals(AgentHarness& h) {
  ClientTotals t;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto s = h.client(g).stats();
    t.submitted += s.records_submitted;
    t.bytes += s.bytes_sent;
    t.frames += s.frames_sent;
    t.shed += s.records_shed;
    t.reconnects += s.reconnects;
  }
  return t;
}

BatchSink client_sink(AgentHarness& h, Tracer& tracer) {
  return [&h, &tracer](std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch) {
    Span span(tracer, kSubmit);
    h.client(group_of(batch.front().link)).submit(epoch, batch);
  };
}

/// Closed loop: replay as fast as possible, from the first tap packet until a
/// coordinator fleet_stats reply shows every submitted record ingested.
PassResult run_closed_pass(PassContext& ctx, AgentHarness& h, QueryLog& log) {
  PassResult r;
  r.traced = ctx.tracer.enabled;
  Replica replica(ctx.fabric, ctx.spec, ctx.tracer, client_sink(h, ctx.tracer),
                  ctx.tracer.enabled ? ctx.prod : nullptr);
  Replayer rp(ctx.rec, replica, ctx.spec.epoch.ns());
  FreshnessPoller poller(h.coord().client(0), log);
  const ClientTotals c0 = client_totals(h);
  const std::uint32_t epochs = ctx.rec.epochs_per_loop;

  const ProcCounters proc0 = ProcCounters::read();
  const std::int64_t agent0 = h.agent_cpu_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns();
  while (rp.next_epoch() < epochs) {
    std::size_t n = 0;
    {
      Span span(ctx.tracer, kReplay);
      n = rp.replay(INT64_MAX, kChunk);
    }
    if (n == 0 && rp.boundary_ready()) {
      const std::int64_t due = now_ns();
      {
        Span span(ctx.tracer, kSeal);
        rp.seal();
      }
      flush_all(h, ctx.tracer);
      pump_all(h, ctx.tracer);
      wait_below(h, ctx.tracer, kHighWaterBytes);
      poller.sealed(due, client_totals(h).submitted - c0.submitted);
    }
    Span span(ctx.tracer, kCoord);
    poller.service();
    if (!poller.outstanding() && !poller.all_covered()) poller.send();
  }
  wait_below(h, ctx.tracer, 0);
  const ClientTotals c1 = client_totals(h);
  await_ingest(h, poller, ctx.tracer, c1.submitted - c0.submitted, log);
  const std::int64_t t1 = now_ns();
  r.main_cpu_ns = thread_cpu_ns() - cpu0;
  r.agent_cpu_ns = h.agent_cpu_ns() - agent0;
  r.proc = ProcCounters::read() - proc0;

  r.wall_ns = t1 - t0;
  r.tap_packets = rp.packets_replayed();
  r.regular_packets = rp.regular_replayed();
  r.epochs = epochs;
  r.records = c1.submitted - c0.submitted;
  r.bytes_sent = c1.bytes - c0.bytes;
  r.frames_sent = c1.frames - c0.frames;
  r.records_shed = c1.shed - c0.shed;
  r.reconnects = c1.reconnects - c0.reconnects;
  r.ingested = poller.ingested();
  r.estimates = replica.estimates();
  r.classified = replica.classified();
  r.unclassified = replica.unclassified();
  r.lag_ms = poller.lag_ms;
  if (r.traced) {
    r.tr_wall_ns = r.wall_ns;
    r.tr_packets = r.tap_packets;
    r.tr_records = r.records;
    r.tr_epochs = r.epochs;
  }
  return r;
}

/// Open loop: sim time runs at wall-clock speed over the looped recording;
/// the query mix is due at fixed offsets in every epoch; freshness polls run
/// while a sealed epoch is not yet seen ingested; the generator never waits
/// on the agent and its lateness is recorded.
PassResult run_paced_pass(PassContext& ctx, AgentHarness& h, QueryLog& log,
                          std::uint32_t target_epochs, bool trace_second_half,
                          std::uint64_t seed) {
  PassResult r;
  Replica replica(ctx.fabric, ctx.spec, ctx.tracer, client_sink(h, ctx.tracer), ctx.prod);
  Replayer rp(ctx.rec, replica, ctx.spec.epoch.ns());
  FreshnessPoller poller(h.coord().client(0), log);
  const ClientTotals c0 = client_totals(h);
  const std::int64_t period = ctx.spec.epoch.ns();
  // One blocking query is due at 0.3 and one at 0.8 of every epoch, rotating
  // through the six kinds. The non-blocking freshness poll is sent whenever
  // none is out and some sealed epoch is not yet seen ingested, so an
  // epoch's lag is measured to within one poll round trip.
  static constexpr int kMix[] = {kQStats,       kQFleet,      kQTopK,
                                 kQFlowQuantile, kQWindowFleet, kQWindowFlowQuantile};
  static constexpr double kMixOffset[] = {0.3, 0.8};
  std::mt19937_64 rng(seed ^ 0x5eedULL);

  const ProcCounters proc0 = ProcCounters::read();
  const std::int64_t agent0 = h.agent_cpu_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns();
  std::uint64_t mix_slot = 0;
  auto mix_due = [&] {
    const std::uint64_t e = mix_slot / std::size(kMixOffset);
    const double off = kMixOffset[mix_slot % std::size(kMixOffset)];
    return t0 + static_cast<std::int64_t>(e) * period + static_cast<std::int64_t>(off * static_cast<double>(period));
  };
  std::int64_t half_cpu = 0;
  std::int64_t half_t = 0;
  std::uint64_t half_pkts = 0;
  std::uint64_t half_records = 0;
  const std::uint32_t half_epoch = target_epochs / 2;

  while (rp.next_epoch() < target_epochs) {
    const std::int64_t now = now_ns();
    const std::int64_t sim_now = now - t0;
    std::size_t n = 0;
    {
      Span span(ctx.tracer, kReplay);
      n = rp.replay(sim_now, kChunk);
    }
    if (rp.boundary_ready() && rp.next_boundary() <= sim_now) {
      const std::int64_t due = t0 + rp.next_boundary();
      r.late_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
      {
        Span span(ctx.tracer, kSeal);
        rp.seal();
      }
      flush_all(h, ctx.tracer);
      pump_all(h, ctx.tracer);
      poller.sealed(due, client_totals(h).submitted - c0.submitted);
      if (trace_second_half && rp.next_epoch() == half_epoch) {
        half_cpu = thread_cpu_ns() - cpu0;
        half_t = now_ns();
        half_pkts = rp.packets_replayed();
        half_records = client_totals(h).submitted - c0.submitted;
        ctx.tracer.enabled = true;
      }
      continue;
    }
    if (n > 0) continue;
    {
      Span span(ctx.tracer, kPump);
      for (std::size_t g = 0; g < kGroups; ++g) {
        if (h.client(g).buffered_bytes() > 0) h.client(g).pump();
      }
    }
    {
      Span span(ctx.tracer, kCoord);
      poller.service();
      if (!poller.outstanding() && !poller.all_covered()) poller.send();
      if (mix_due() <= now) {
        poller.finish();
        // Each round of six starts one kind later, so every kind takes both
        // offsets in turn.
        const int kind = kMix[(mix_slot + mix_slot / std::size(kMix)) % std::size(kMix)];
        const auto& key = ctx.query_keys[rng() % ctx.query_keys.size()];
        const std::uint32_t last = rp.next_epoch() > 0 ? rp.next_epoch() - 1 : 0;
        const bool ok = run_query(h.coord(), kind, key, last);
        if (ok) {
          log.add(kind, static_cast<double>(now_ns() - mix_due()) / 1e6);
        } else {
          log.failed += 1;
          log.issued += 1;
        }
        ++mix_slot;
        continue;
      }
    }
    std::int64_t wake = std::min({t0 + rp.next_packet_ts(), t0 + rp.next_boundary(), mix_due()});
    if (poller.outstanding()) wake = std::min(wake, now + 50'000);
    const std::int64_t sleep = std::min<std::int64_t>(wake - now_ns(), 500'000);
    if (sleep > 0) {
      Span span(ctx.tracer, kIdle);
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep));
    }
  }
  wait_below(h, ctx.tracer, 0);
  const ClientTotals c1 = client_totals(h);
  await_ingest(h, poller, ctx.tracer, c1.submitted - c0.submitted, log);
  const std::int64_t t1 = now_ns();
  r.main_cpu_ns = thread_cpu_ns() - cpu0;
  r.agent_cpu_ns = h.agent_cpu_ns() - agent0;
  r.proc = ProcCounters::read() - proc0;
  r.traced = ctx.tracer.enabled;
  if (trace_second_half && half_pkts > 0 && rp.packets_replayed() > half_pkts) {
    r.untraced_cpu_per_pkt = static_cast<double>(half_cpu) / static_cast<double>(half_pkts);
    r.traced_cpu_per_pkt = static_cast<double>(r.main_cpu_ns - half_cpu) /
                           static_cast<double>(rp.packets_replayed() - half_pkts);
  }

  r.wall_ns = t1 - t0;
  r.tap_packets = rp.packets_replayed();
  r.regular_packets = rp.regular_replayed();
  r.epochs = target_epochs;
  r.records = c1.submitted - c0.submitted;
  r.bytes_sent = c1.bytes - c0.bytes;
  r.frames_sent = c1.frames - c0.frames;
  r.records_shed = c1.shed - c0.shed;
  r.reconnects = c1.reconnects - c0.reconnects;
  r.ingested = poller.ingested();
  r.estimates = replica.estimates();
  r.classified = replica.classified();
  r.unclassified = replica.unclassified();
  r.lag_ms = poller.lag_ms;
  if (r.traced) {
    r.tr_wall_ns = t1 - half_t;
    r.tr_packets = r.tap_packets - half_pkts;
    r.tr_records = r.records - half_records;
    r.tr_epochs = target_epochs - half_epoch;
  }
  return r;
}

}  // namespace pb

namespace pb {

// --- The in-process oracle ----------------------------------------------------

/// A serial ShardedCollector (and, with history, a SketchHistoryStore) fed
/// the batches a full-speed replay of the same epochs produces.
struct Oracle {
  collect::ShardedCollector collector;
  std::unique_ptr<collect::SketchHistoryStore> history;
  rli::FlowStatsMap first_loop_estimates;
  std::uint64_t records = 0;

  static collect::CollectorConfig config() {
    collect::CollectorConfig cfg;
    cfg.shard_count = kShards;
    return cfg;
  }

  explicit Oracle(bool with_history) : collector(config()) {
    if (with_history) history = std::make_unique<collect::SketchHistoryStore>(collect::HistoryConfig{});
  }
};

std::unique_ptr<Oracle> run_oracle(PassContext& ctx, std::uint32_t epochs) {
  auto oracle = std::make_unique<Oracle>(ctx.spec.history);
  Tracer off;
  Oracle* o = oracle.get();
  Replica replica(ctx.fabric, ctx.spec, off,
                  [o](std::uint32_t, const std::vector<collect::EstimateRecord>& batch) {
                    o->collector.ingest(batch);
                    if (o->history != nullptr) {
                      for (const auto& record : batch) o->history->ingest(record);
                    }
                    o->records += batch.size();
                  },
                  nullptr);
  Replayer rp(ctx.rec, replica, ctx.spec.epoch.ns());
  while (rp.next_epoch() < epochs) {
    if (rp.replay(INT64_MAX, kChunk) == 0 && rp.boundary_ready()) {
      rp.seal();
      if (rp.next_epoch() == ctx.rec.epochs_per_loop) {
        oracle->first_loop_estimates = replica.merged_estimates();
      }
    }
  }
  return oracle;
}

bool same_stats(const common::RunningStats& a, const common::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.min() == b.min() &&
         a.max() == b.max() && a.variance() == b.variance();
}

bool same_sketch(const common::LatencySketch& a, const common::LatencySketch& b) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(b.sum()));
  return a.bins() == b.bins() && a.count() == b.count() && a.zero_count() == b.zero_count() &&
         std::fabs(a.sum() - b.sum()) <= tol;
}

void check_fidelity(Checks& checks, const Recording& rec, const Oracle& oracle) {
  const auto& want = rec.insim_estimates;
  const auto& got = oracle.first_loop_estimates;
  bool same = want.size() == got.size() && !want.empty();
  for (const auto& [key, stats] : want) {
    const auto it = got.find(key);
    if (it == got.end() || !same_stats(it->second, stats)) {
      same = false;
      break;
    }
  }
  checks.expect(same, "replay fidelity: replayed per-flow estimates differ from the in-sim "
                      "FleetCollector (" + std::to_string(got.size()) + " vs " +
                          std::to_string(want.size()) + " flows)");
}

/// Coordinator answers vs the oracle, bin for bin.
void check_oracle(Checks& checks, AgentHarness& h, Oracle& oracle, std::uint32_t last_epoch) {
  auto& coord = h.coord();
  checks.expect(same_sketch(coord.fleet(), oracle.collector.fleet()),
                "oracle: coordinator fleet sketch differs from the in-process collector");
  const auto got = coord.top_k_ranked(kTopK, 0.99);
  const auto want = oracle.collector.top_k_ranked(kTopK, 0.99);
  bool same_top = got.size() == want.size();
  for (std::size_t i = 0; same_top && i < got.size(); ++i) {
    same_top = got[i].first == want[i].first && got[i].second.key == want[i].second.key &&
               got[i].second.packets == want[i].second.packets &&
               got[i].second.p99_ns == want[i].second.p99_ns;
  }
  checks.expect(same_top, "oracle: coordinator top-k differs from the in-process collector");
  if (oracle.history == nullptr) return;
  const std::uint32_t windows[][2] = {
      {last_epoch >= kWindowEpochs - 1 ? last_epoch - (kWindowEpochs - 1) : 0, last_epoch},
      {0, last_epoch},
      {last_epoch / 2, last_epoch}};
  for (const auto& w : windows) {
    const auto got_w = coord.window_fleet(w[0], w[1]);
    collect::WindowCoverage cov;
    const auto want_w = oracle.history->window_fleet(w[0], w[1], &cov);
    const bool same = got_w.sketch.has_value() && same_sketch(*got_w.sketch, want_w) &&
                      got_w.window.records == cov.records;
    checks.expect(same, "oracle: window_fleet [" + std::to_string(w[0]) + "," +
                            std::to_string(w[1]) + "] differs from the in-process history store");
  }
}

void check_conservation(Checks& checks, AgentHarness& h, const PassResult& pass,
                        std::uint64_t submitted_total, bool closed_loop) {
  const auto stats = h.coord().fleet_stats();
  const auto shed = client_totals(h).shed;
  checks.expect(submitted_total == stats.records_ingested + shed,
                "conservation: submitted " + std::to_string(submitted_total) + " != ingested " +
                    std::to_string(stats.records_ingested) + " + shed " + std::to_string(shed));
  if (closed_loop) checks.expect(shed == 0, "conservation: records shed in a closed loop");
  checks.expect(stats.protocol_errors == 0, "agent protocol errors");
  checks.expect(pass.records > 0, "no records submitted");
}

/// Fig 4a accuracy: median relative error of the coordinator-answered
/// per-flow mean over flows with >= 10 delivered packets.
double flow_mean_relerr(PassContext& ctx, AgentHarness& h, Checks& checks, std::uint64_t seed,
                        QueryLog& log) {
  std::vector<std::pair<std::uint64_t, net::FiveTuple>> eligible;
  for (const auto& [key, truth] : ctx.rec.truth) {
    if (truth.delivered >= 10 && truth.count > 0) {
      eligible.emplace_back(pb::mix64(std::hash<net::FiveTuple>{}(key) ^ seed), key);
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (eligible.size() > 200) eligible.resize(200);
  std::vector<double> errs;
  for (const auto& [rank, key] : eligible) {
    const auto failures_before = h.coord().stats().agent_failures;
    const auto sketch = h.coord().flow_sketch(key);
    ++log.issued;
    if (h.coord().stats().agent_failures != failures_before) ++log.failed;
    if (!sketch.has_value() || sketch->empty()) continue;
    const auto& truth = ctx.rec.truth.at(key);
    const double true_mean = truth.sum_ns / static_cast<double>(truth.count);
    if (true_mean <= 0.0) continue;
    errs.push_back(std::fabs(sketch->mean() - true_mean) / true_mean);
  }
  checks.expect(errs.size() >= 5, "accuracy: fewer than 5 flows with >= 10 packets answered");
  return median_of(errs);
}

double state_bytes_per_flow(AgentHarness& h, double* collector_bytes_per_flow) {
  const auto snap = h.agent().collector().snapshot();
  const double flows = static_cast<double>(std::max<std::size_t>(1, snap.flow_count()));
  const double collector = static_cast<double>(snap.approx_flow_bytes());
  const double history =
      h.agent().history() != nullptr ? static_cast<double>(h.agent().history()->approx_bytes()) : 0.0;
  *collector_bytes_per_flow = collector / flows;
  return (collector + history) / flows;
}

// --- Output --------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string first_line_of(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return line;
      auto v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::string environment_json(const std::string& workload, std::uint64_t seed) {
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"seed\": " << seed << ", \"workload\": \"" << json_escape(workload)
    << "\", \"cpu\": \"" << json_escape(first_line_of("/proc/cpuinfo", "model name"))
    << "\", \"nproc\": " << std::thread::hardware_concurrency() << ", \"kernel\": \""
    << json_escape(std::string(u.sysname) + " " + u.release) << "\", \"compiler\": \""
    << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\"}";
  return o.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const std::vector<obs::Span>& prod_spans, const std::string& env) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"otherData\": " << env << ", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& name, int pid, double ts_us, double dur_us) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"" << json_escape(name) << "\", \"ph\": \"X\", \"pid\": " << pid
        << ", \"tid\": 1, \"ts\": " << ts_us << ", \"dur\": " << dur_us << "}";
  };
  for (const auto& r : tracer.records()) {
    emit(layer_name(r.layer), 1, static_cast<double>(r.start) / 1e3,
         static_cast<double>(r.end - r.start) / 1e3);
  }
  for (const auto& s : prod_spans) {
    emit(std::string(obs::span_kind_stage(s.kind)) + (s.label.empty() ? "" : " " + s.label), 2,
         static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.duration_ns()) / 1e3);
  }
  out << "\n]}\n";
}

/// Sum and count of the program's rlir_stage_ns{stage=...} histograms.
std::map<std::string, std::pair<double, std::uint64_t>> stage_totals(obs::MetricsRegistry& reg) {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name != "rlir_stage_ns") continue;
    for (const auto& [k, v] : s.labels) {
      if (k != "stage") continue;
      auto& slot = out[v];
      slot.first += s.histogram.sum();
      slot.second += s.histogram.count();
    }
  }
  return out;
}

}  // namespace pb

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench";
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int run(const Options& opt) {
  const WorkloadSpec spec = make_spec(opt.workload, opt.tiny);
  const std::string env = environment_json(opt.workload, opt.seed);
  std::printf("# env %s\n", env.c_str());
  std::fflush(stdout);
  std::filesystem::create_directories(opt.out_dir);

  Checks checks;
  Tracer tracer;
  std::unique_ptr<ProdInstruments> prod =
      opt.trace ? std::make_unique<ProdInstruments>() : nullptr;
  int sockets = 0;
  auto socket_path = [&] {
    return opt.out_dir + "/agent-" + std::to_string(::getpid()) + "-" +
           std::to_string(sockets++) + ".sock";
  };

  // --- Setup, repeated; setup_s is the median. -----------------------------
  const int repeats = opt.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<AgentHarness> harness;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<Recording> rec;
  for (int k = 0; k < repeats; ++k) {
    harness.reset();
    const std::int64_t t = now_ns();
    auto f = std::make_unique<Fabric>();
    auto r = simulate(*f, spec, opt.seed);
    auto hh = std::make_unique<AgentHarness>(spec, socket_path(), prod.get());
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    if (rec != nullptr) {
      checks.expect(r->fingerprint == rec->fingerprint, "setup: simulation not deterministic");
    }
    fabric = std::move(f);
    rec = std::move(r);
    harness = std::move(hh);
  }
  checks.expect(!rec->packets.empty() && rec->epochs_per_loop > 0, "setup: empty recording");

  PassContext ctx{*fabric, spec, *rec, tracer, prod.get(), {}};
  {
    std::vector<std::pair<std::uint64_t, net::FiveTuple>> keys;
    for (const auto& [key, truth] : rec->truth) {
      if (truth.delivered > 0) keys.emplace_back(mix64(std::hash<net::FiveTuple>{}(key) ^ opt.seed), key);
    }
    std::sort(keys.begin(), keys.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < keys.size() && i < 256; ++i) ctx.query_keys.push_back(keys[i].second);
  }
  checks.expect(!ctx.query_keys.empty(), "setup: no flows to query");
  if (!checks.ok()) {
    for (const auto& f : checks.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    return 1;
  }

  // --- Timed phase. ---------------------------------------------------------
  const CpuTicks ticks0 = CpuTicks::read();
  QueryLog log;
  std::vector<PassResult> passes;
  std::uint64_t missing = 0, shed = 0, protocol_errors = 0;
  if (!spec.paced) {
    auto oracle = run_oracle(ctx, rec->epochs_per_loop);
    check_fidelity(checks, *rec, *oracle);
    const std::int64_t start = now_ns();
    const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 0.85e9);
    const std::size_t min_passes = opt.trace ? 4 : 3;
    for (std::size_t i = 0;; ++i) {
      const bool traced = opt.trace && i % 2 == 0;
      if (i > 0) {
        const std::string error = harness->stop();
        checks.expect(error.empty(), "agent thread: " + error);
        harness.reset();
        harness = std::make_unique<AgentHarness>(spec, socket_path(), traced ? prod.get() : nullptr);
      }
      tracer.enabled = traced;
      PassResult r = run_closed_pass(ctx, *harness, log);
      tracer.enabled = false;
      check_conservation(checks, *harness, r, r.records, true);
      checks.expect(oracle->records == r.records, "oracle: record count differs from the pass");
      check_oracle(checks, *harness, *oracle, rec->epochs_per_loop - 1);
      missing += r.records - std::min(r.records, r.ingested + r.records_shed);
      shed += r.records_shed;
      passes.push_back(std::move(r));
      if (now_ns() - start >= budget && passes.size() >= min_passes) break;
      if (!checks.ok()) break;
    }
    // The query mix against the final state, back to back.
    const int rounds = opt.tiny ? 20 : 510;
    std::mt19937_64 rng(opt.seed ^ 0x9e37ULL);
    for (int round = 0; round < rounds; ++round) {
      for (int kind = 0; kind < kQueryKinds; ++kind) {
        const auto& key = ctx.query_keys[rng() % ctx.query_keys.size()];
        const std::int64_t due = now_ns();
        if (run_query(harness->coord(), kind, key, rec->epochs_per_loop - 1)) {
          log.add(kind, static_cast<double>(now_ns() - due) / 1e6);
        } else {
          log.failed += 1;
          log.issued += 1;
        }
      }
    }
  } else {
    // Sessions of kSessionEpochs, each on a fresh agent: the agent's cost of
    // a stats answer grows with every epoch it has seen, and with one agent
    // for the whole run every freshness and query figure would depend on how
    // far into the run it was taken.
    const auto target = static_cast<std::uint32_t>(
        std::max(16.0, opt.seconds * 1e9 / static_cast<double>(spec.epoch.ns())));
    const std::uint32_t sessions = std::max<std::uint32_t>(1, target / kSessionEpochs);
    const std::uint32_t epochs = target / sessions;
    auto oracle = run_oracle(ctx, epochs);
    check_fidelity(checks, *rec, *oracle);
    for (std::uint32_t i = 0; i < sessions; ++i) {
      if (i > 0) {
        const std::string error = harness->stop();
        checks.expect(error.empty(), "agent thread: " + error);
        harness.reset();
        harness = std::make_unique<AgentHarness>(spec, socket_path(), prod.get());
      }
      PassResult r = run_paced_pass(ctx, *harness, log, epochs, opt.trace, opt.seed + i);
      tracer.enabled = false;
      check_conservation(checks, *harness, r, r.records, false);
      checks.expect(oracle->records == r.records, "oracle: record count differs from the session");
      check_oracle(checks, *harness, *oracle, epochs - 1);
      missing += r.records - std::min(r.records, r.ingested + r.records_shed);
      shed += r.records_shed;
      passes.push_back(std::move(r));
      if (!checks.ok()) break;
    }
  }
  const CpuTicks ticks1 = CpuTicks::read();
  const double steal_frac =
      ratio(static_cast<double>(ticks1.steal - ticks0.steal),
            static_cast<double>(ticks1.busy - ticks0.busy + ticks1.steal - ticks0.steal));
  protocol_errors = harness->coord().fleet_stats().protocol_errors;
  const double relerr = flow_mean_relerr(ctx, *harness, checks, opt.seed, log);
  double agent_bytes_per_flow = 0.0;
  const double state_bytes = state_bytes_per_flow(*harness, &agent_bytes_per_flow);
  collect::SketchHistoryStore* history = harness->agent().history();
  const double history_bytes = history != nullptr ? static_cast<double>(history->approx_bytes()) : 0.0;
  const double history_epochs = history != nullptr ? static_cast<double>(history->epochs_retained()) : 0.0;
  const double history_compactions = history != nullptr ? static_cast<double>(history->compactions()) : 0.0;
  const std::string agent_error = harness->stop();
  checks.expect(agent_error.empty(), "agent thread: " + agent_error);

  // --- Result. ----------------------------------------------------------------
  std::uint64_t records_total = 0;
  std::vector<double> pps, lag;
  std::vector<double> late;
  for (const auto& p : passes) {
    records_total += p.records;
    pps.push_back(p.pps());
    lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
    late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
  }
  const std::uint64_t attempted = records_total + log.issued;
  const std::uint64_t failed = shed + missing + protocol_errors + log.failed;
  const auto& queries = log.in_order;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median_of(setup_s), "s"},
        // Closed loops: the middle half of the passes, averaged.
        {"pipeline_pps", spec.paced ? median_of(pps) : interquartile_mean(pps), "pkt/s"},
        {"epoch_lag_ms_p50", median_of(lag), "ms"},
        {"query_ms_p50", log.mix_ms_p50(), "ms"},
        {"ok_frac", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"},
        {"flow_mean_relerr_p50", relerr, "ratio"},
        {"state_bytes_per_flow", state_bytes, "bytes"},
    };
    std::printf("# samples: passes %zu, epoch_lag %zu, queries %zu\n", passes.size(), lag.size(),
                queries.size());
  } else {
    // Aggregate over the traced passes (closed loops) or the traced half.
    PassResult t;
    std::vector<double> traced_pps, untraced_pps, paced_overheads;
    double overhead = 0.0;
    for (const auto& p : passes) {
      (p.traced ? traced_pps : untraced_pps).push_back(p.pps());
      if (!p.traced && !spec.paced) continue;
      t.wall_ns += p.wall_ns;
      t.tap_packets += p.tap_packets;
      t.regular_packets += p.regular_packets;
      t.epochs += p.epochs;
      t.records += p.records;
      t.estimates += p.estimates;
      t.classified += p.classified;
      t.unclassified += p.unclassified;
      t.main_cpu_ns += p.main_cpu_ns;
      t.agent_cpu_ns += p.agent_cpu_ns;
      t.proc += p.proc;
      t.bytes_sent += p.bytes_sent;
      t.frames_sent += p.frames_sent;
      t.records_shed += p.records_shed;
      t.reconnects += p.reconnects;
      t.tr_wall_ns += p.tr_wall_ns;
      t.tr_packets += p.tr_packets;
      t.tr_records += p.tr_records;
      t.tr_epochs += p.tr_epochs;
      if (spec.paced && p.untraced_cpu_per_pkt > 0.0) {
        paced_overheads.push_back(p.traced_cpu_per_pkt / p.untraced_cpu_per_pkt - 1.0);
      }
    }
    if (!paced_overheads.empty()) overhead = median_of(paced_overheads);
    if (!spec.paced && !traced_pps.empty() && !untraced_pps.empty()) {
      overhead = median_of(untraced_pps) / median_of(traced_pps) - 1.0;
    }
    const double recs = static_cast<double>(std::max<std::uint64_t>(1, t.records));
    const double tr_recs = static_cast<double>(std::max<std::uint64_t>(1, t.tr_records));
    const double tr_pkts = static_cast<double>(std::max<std::uint64_t>(1, t.tr_packets));
    const double tr_epochs = static_cast<double>(std::max<std::uint64_t>(1, t.tr_epochs));
    const double tr_wall = static_cast<double>(std::max<std::int64_t>(1, t.tr_wall_ns));
    const double wall = static_cast<double>(std::max<std::int64_t>(1, t.wall_ns));
    auto self = [&](int layer) { return static_cast<double>(tracer.self(layer)); };
    double accounted = 0.0;
    for (int l = 0; l < kLayerCount; ++l) accounted += self(l);
    const double rlir_busy = self(kReplay) + self(kFlush);
    const double main_busy = rlir_busy + self(kSeal) + self(kSubmit) + self(kPump);
    const double agent_tr = static_cast<double>(t.agent_cpu_ns) * tr_wall / wall;
    auto coord_p50 = [&](int kind) { return quantile_of(log.ms[kind], 0.5); };
    const auto stages = stage_totals(prod->registry);
    auto stage_mean = [&](const char* stage) {
      const auto it = stages.find(stage);
      return it == stages.end() ? 0.0 : ratio(it->second.first, static_cast<double>(it->second.second));
    };
    auto stage_per_record = [&](const char* stage) {
      const auto it = stages.find(stage);
      return it == stages.end() ? 0.0 : it->second.first / (spec.paced ? recs : tr_recs);
    };
    metrics = {
        {"rlir.ns_per_pkt", self(kReplay) / tr_pkts, "ns"},
        {"rlir.flush_ns_per_epoch", self(kFlush) / tr_epochs, "ns"},
        {"rlir.estimates_per_pkt",
         ratio(static_cast<double>(t.estimates), static_cast<double>(t.regular_packets)), "ratio"},
        {"rlir.unclassified_frac",
         ratio(static_cast<double>(t.unclassified), static_cast<double>(t.classified + t.unclassified)),
         "ratio"},
        {"exporter.drain_ns_per_record", self(kSeal) / tr_recs, "ns"},
        {"exporter.records_per_kpkt",
         1000.0 * ratio(static_cast<double>(t.records), static_cast<double>(t.tap_packets)), "count"},
        {"client.submit_ns_per_record", self(kSubmit) / tr_recs, "ns"},
        {"client.pump_ns_per_record", self(kPump) / tr_recs, "ns"},
        {"client.wait_ns_per_record", self(kWait) / tr_recs, "ns"},
        {"client.wire_bytes_per_record", static_cast<double>(t.bytes_sent) / recs, "bytes"},
        {"client.records_per_frame",
         ratio(static_cast<double>(t.records), static_cast<double>(t.frames_sent)), "count"},
        {"client.records_shed", static_cast<double>(t.records_shed), "count"},
        {"client.reconnects", static_cast<double>(t.reconnects), "count"},
        {"agent.cpu_ns_per_record", static_cast<double>(t.agent_cpu_ns) / recs, "ns"},
        {"agent.busy_frac", static_cast<double>(t.agent_cpu_ns) / wall, "ratio"},
        {"agent.protocol_errors", static_cast<double>(protocol_errors), "count"},
        {"agent.bytes_per_flow", agent_bytes_per_flow, "bytes"},
        {"history.bytes", history_bytes, "bytes"},
        {"history.epochs_retained", history_epochs, "count"},
        {"history.compactions", history_compactions, "count"},
        {"coord.stats_ms_p50", coord_p50(kQStats), "ms"},
        {"coord.fleet_ms_p50", coord_p50(kQFleet), "ms"},
        {"coord.top_k_ms_p50", coord_p50(kQTopK), "ms"},
        {"coord.flow_quantile_ms_p50", coord_p50(kQFlowQuantile), "ms"},
        {"coord.window_fleet_ms_p50", coord_p50(kQWindowFleet), "ms"},
        {"coord.window_flow_quantile_ms_p50", coord_p50(kQWindowFlowQuantile), "ms"},
        {"coord.agent_failures", static_cast<double>(log.failed), "count"},
        {"proc.allocs_per_record", static_cast<double>(t.proc.allocs) / recs, "count"},
        {"proc.alloc_bytes_per_record", static_cast<double>(t.proc.alloc_bytes) / recs, "bytes"},
        {"proc.syscalls_per_record", static_cast<double>(t.proc.syscalls) / recs, "count"},
        {"gen.busy_frac", static_cast<double>(t.main_cpu_ns) / wall, "ratio"},
        {"gen.late_ms_p99", quantile_of(late, 0.99), "ms"},
        {"trace.overhead_frac", overhead, "ratio"},
        {"raw.pipeline_pps_median", median_of(pps), "pkt/s"},
        {"raw.epoch_lag_ms_p99", robust_p99(lag), "ms"},
        {"raw.query_ms_p50", median_of(queries), "ms"},
        {"raw.query_ms_p99", robust_p99(queries), "ms"},
        {"host.steal_frac", steal_frac, "ratio"},
        {"self.replay_frac", self(kReplay) / tr_wall, "ratio"},
        {"self.flush_frac", self(kFlush) / tr_wall, "ratio"},
        {"self.seal_frac", self(kSeal) / tr_wall, "ratio"},
        {"self.submit_frac", self(kSubmit) / tr_wall, "ratio"},
        {"self.pump_frac", self(kPump) / tr_wall, "ratio"},
        {"self.wait_frac", self(kWait) / tr_wall, "ratio"},
        {"self.coord_frac", self(kCoord) / tr_wall, "ratio"},
        {"self.idle_frac", self(kIdle) / tr_wall, "ratio"},
        {"self.accounted_frac", accounted / tr_wall, "ratio"},
        {"main.rlir_share_of_busy", ratio(rlir_busy, main_busy), "ratio"},
        {"main.collect_over_rlir", ratio(main_busy - rlir_busy + agent_tr, rlir_busy), "ratio"},
        {"bench.seal_ns_per_epoch", static_cast<double>(tracer.total(kSeal)) / tr_epochs, "ns"},
        {"prod.epoch_seal_ns_mean", stage_mean("epoch_seal"), "ns"},
        {"prod.client_flush_ns_mean", stage_mean("flush"), "ns"},
        {"prod.client_pump_ns_mean", stage_mean("pump"), "ns"},
        {"prod.agent_decode_ns_per_record", stage_per_record("decode"), "ns"},
        {"prod.agent_ingest_ns_per_record", stage_per_record("ingest"), "ns"},
        {"prod.agent_answer_ns_mean", stage_mean("answer"), "ns"},
    };
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    write_chrome_trace(path, tracer, prod->spans.snapshot().spans, env);
    std::printf("# chrome trace: %s\n", path.c_str());
  }

  for (const auto& f : checks.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (checks.ok() && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  harness.reset();
  return checks.ok() && failed == 0 ? 0 : 1;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--out-dir") opt.out_dir = value();
      else if (a == "--tiny") opt.tiny = true;
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s --workload elephant|mice|live_ops --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--tiny]\n",
                 argv[0]);
    return 2;
  }
  try {
    return pb::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
