// Readiness waits on the transport tier: wait_for_io on a socketpair, an
// agent run() loop woken by socket traffic instead of its idle timer (and
// an agent that starts no threads of its own), and the reply budget of the
// socket-paced query loops — a deadline, so a reply read in many small
// pieces is not cut short, while a silent peer still times out after
// reply_rounds x 100us.
#include "transport/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "common/rng.h"
#include "submit_records.h"
#include "transport/agent.h"
#include "transport/client.h"
#include "transport/coordinator.h"

namespace rlir::transport {
namespace {

using Clock = std::chrono::steady_clock;
using timebase::Duration;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string socket_path(const std::string& tag) {
  return testing::TempDir() + "rlir_wake_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

/// A connected AF_UNIX socketpair, closed on scope exit.
struct SocketPair {
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds.data()) != 0) fds = {-1, -1};
  }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  std::array<int, 2> fds{-1, -1};
};

void write_byte(int fd) {
  const char byte = 'x';
  ASSERT_EQ(::write(fd, &byte, 1), 1);
}

// --- wait_for_io -------------------------------------------------------------

TEST(TransportWaitForIo, ReturnsSoonAfterBytesBecomeReadable) {
  SocketPair pair;
  ASSERT_GE(pair.fds[0], 0);
  std::thread writer([&pair] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_byte(pair.fds[1]);
  });
  pollfd fd{pair.fds[0], POLLIN, 0};
  const auto t0 = Clock::now();
  const int ready = wait_for_io({&fd, 1}, Duration::seconds(5));
  const double waited = ms_since(t0);
  writer.join();
  EXPECT_EQ(ready, 1);
  EXPECT_NE(fd.revents & POLLIN, 0);
  EXPECT_LT(waited, 1000.0);  // the 5 s timeout is only an upper bound
}

TEST(TransportWaitForIo, WaitsRoughlyTheTimeoutWhenNothingIsReadable) {
  SocketPair pair;
  ASSERT_GE(pair.fds[0], 0);
  pollfd fd{pair.fds[0], POLLIN, 0};
  const auto t0 = Clock::now();
  EXPECT_EQ(wait_for_io({&fd, 1}, Duration::milliseconds(50)), 0);
  const double waited = ms_since(t0);
  EXPECT_GE(waited, 49.0);
  EXPECT_LT(waited, 1000.0);
}

TEST(TransportWaitForIo, IgnoresNegativeEntries) {
  SocketPair pair;
  ASSERT_GE(pair.fds[0], 0);
  write_byte(pair.fds[1]);
  std::array<pollfd, 3> fds{{{-1, POLLIN, 0}, {pair.fds[0], POLLIN, 0}, {-1, POLLIN, 0}}};
  auto t0 = Clock::now();
  EXPECT_EQ(wait_for_io(fds, Duration::seconds(5)), 1);
  EXPECT_LT(ms_since(t0), 1000.0);
  EXPECT_EQ(fds[0].revents, 0);
  EXPECT_NE(fds[1].revents & POLLIN, 0);

  // Drained: the -1 entries neither fail the wait nor end it early.
  char sink = 0;
  ASSERT_EQ(::read(pair.fds[0], &sink, 1), 1);
  t0 = Clock::now();
  EXPECT_EQ(wait_for_io(fds, Duration::milliseconds(30)), 0);
  EXPECT_GE(ms_since(t0), 29.0);
}

TEST(TransportWaitForIo, SleepsWhenNoDescriptorIsUsable) {
  std::array<pollfd, 2> fds{{{-1, POLLIN, 0}, {-1, POLLIN | POLLOUT, 0}}};
  auto t0 = Clock::now();
  EXPECT_EQ(wait_for_io(fds, Duration::milliseconds(30)), 0);
  EXPECT_GE(ms_since(t0), 29.0);
  t0 = Clock::now();
  EXPECT_EQ(wait_for_io({}, Duration::milliseconds(30)), 0);
  EXPECT_GE(ms_since(t0), 29.0);
}

TEST(TransportWaitForIo, OnlySocketBackendsExposeADescriptor) {
  auto [a, b] = make_loopback();
  EXPECT_EQ(a->native_handle(), -1);
  EXPECT_EQ(b->native_handle(), -1);

  SocketListener listener(SocketAddress::unix_path(socket_path("handles")));
  EXPECT_GE(listener.native_handle(), 0);
  auto client = connect_to(listener.address());
  ASSERT_NE(client, nullptr);
  EXPECT_GE(client->native_handle(), 0);
  client->close();
  EXPECT_EQ(client->native_handle(), -1);  // closed: nothing left to wait on
}

// --- The agent loop ----------------------------------------------------------

/// An agent serving a Unix socket from its own run() thread.
class RunningAgent {
 public:
  RunningAgent(const std::string& path, Duration idle_sleep)
      : address_(SocketAddress::unix_path(path)) {
    agent_.set_listener(std::make_unique<SocketListener>(address_));
    thread_ = std::thread([this, idle_sleep] { agent_.run(stop_, idle_sleep); });
  }
  ~RunningAgent() { (void)stop(); }

  RunningAgent(const RunningAgent&) = delete;
  RunningAgent& operator=(const RunningAgent&) = delete;

  [[nodiscard]] CollectorAgent& agent() { return agent_; }
  [[nodiscard]] const SocketAddress& address() const { return address_; }

  /// Sets the stop flag and joins; returns how long run() took to return.
  double stop() {
    if (!thread_.joinable()) return 0.0;
    const auto t0 = Clock::now();
    stop_.store(true);
    thread_.join();
    return ms_since(t0);
  }

 private:
  SocketAddress address_;
  CollectorAgent agent_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(TransportWakeup, SocketQueriesDoNotWaitOutTheIdlePeriod) {
  RunningAgent running(socket_path("queries"), Duration::milliseconds(200));
  QueryCoordinator coord;
  coord.add_agent([addr = running.address()] { return connect_to(addr); });

  const auto t0 = Clock::now();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coord.per_agent_stats().at(0).has_value()) << "query " << i;
  }
  // Sleep-polling at a 200 ms idle period needs ~4 s for these 20.
  EXPECT_LT(ms_since(t0), 1000.0);
  EXPECT_EQ(coord.stats().agent_failures, 0u);

  // The idle period still bounds how long run() takes to notice `stop`.
  EXPECT_LT(running.stop(), 200.0 + 100.0);
}

// --- The reply budget --------------------------------------------------------

/// Client-side stream wrapper that hands a reply out in small pieces: after
/// each nonempty read it reports "nothing more right now" once, although
/// the socket still holds bytes. The descriptor stays readable, so every
/// round's wait returns at once and each round reads one piece: a large
/// reply arriving in many reads, made deterministic.
class PiecewiseReader final : public ByteStream {
 public:
  PiecewiseReader(std::unique_ptr<ByteStream> inner, std::size_t piece, std::size_t* pieces)
      : inner_(std::move(inner)), piece_(piece), pieces_(pieces) {}

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    return inner_->write_some(data, size);
  }
  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    if (paused_) {
      paused_ = false;
      return 0;
    }
    const std::size_t n = inner_->read_some(data, std::min(size, piece_));
    if (n > 0) {
      paused_ = true;
      *pieces_ += 1;
    }
    return n;
  }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  [[nodiscard]] int native_handle() const override { return inner_->native_handle(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::size_t piece_;
  std::size_t* pieces_;
  bool paused_ = false;
};

std::vector<collect::EstimateRecord> many_flows(std::size_t n) {
  common::Xoshiro256 rng(7);
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                                 static_cast<std::uint8_t>(i));
    r.key.dst = net::Ipv4Address(10, 1, 0, 1);
    r.key.src_port = static_cast<std::uint16_t>(1000 + i);
    r.key.dst_port = 80;
    r.link = static_cast<collect::LinkId>(i % 4);
    for (int j = 0; j < 8; ++j) r.sketch.add(rng.lognormal(9.0, 1.0));
    records.push_back(std::move(r));
  }
  return records;
}

// A 600-flow top-k reply is ~37 KB, so 32-byte pieces take ~1,150 rounds:
// more than the 1,000-round budget counts, but well inside its 100 ms, even
// under the sanitizers (a round that does not wait costs microseconds).
constexpr std::size_t kRounds = 1000;
constexpr std::size_t kFlows = 600;
constexpr std::size_t kPiece = 32;

TEST(TransportReplyBudget, ReplyReadInManyPiecesIsNotAbandoned) {
  RunningAgent running(socket_path("budget"), Duration::milliseconds(1));
  testutil::submit_records(running.agent().collector(), many_flows(kFlows));
  std::size_t pieces = 0;
  const auto factory = [addr = running.address(), &pieces]() -> std::unique_ptr<ByteStream> {
    auto stream = connect_to(addr);
    if (stream == nullptr) return nullptr;
    return std::make_unique<PiecewiseReader>(std::move(stream), kPiece, &pieces);
  };

  QueryCoordinatorConfig cfg;
  cfg.reply_rounds = kRounds;
  QueryCoordinator coord(cfg);
  coord.add_agent(factory);
  // The first top-k ranks every flow; only the transfer is under test, so
  // rank them outside the budget.
  (void)running.agent().collector().top_k_ranked(kFlows, 0.99);
  const auto top = coord.top_k_ranked(kFlows, 0.99);
  EXPECT_EQ(top.size(), kFlows);
  EXPECT_EQ(coord.stats().agent_failures, 0u);
  // The reply took more rounds than the budget counts: a round-count budget
  // would have abandoned it.
  EXPECT_GT(pieces, kRounds);

  // CollectorClient::query's max_pumps is the same kind of budget.
  CollectorClient client({}, factory);
  pieces = 0;
  Query q;
  q.kind = QueryKind::kTopK;
  q.k = static_cast<std::uint32_t>(kFlows);
  q.q = 0.99;
  const auto reply = client.query(q, kRounds);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->top.size(), kFlows);
  EXPECT_EQ(client.stats().queries_lost, 0u);
  EXPECT_GT(pieces, kRounds);
}

/// Threads in this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(TransportAgent, DefaultAgentStartsNoThreads) {
  // Ingest runs inline on the polling thread, so neither constructing an
  // agent nor merging and querying through its collector adds a thread.
  const std::size_t before = thread_count();
  CollectorAgent agent;
  EXPECT_EQ(thread_count(), before);
  testutil::submit_records(agent.collector(), many_flows(64));
  EXPECT_EQ(agent.stats().records_ingested, 64u);
  EXPECT_EQ(agent.collector().top_k_ranked(5, 0.99).size(), 5u);
  EXPECT_EQ(thread_count(), before);
}

TEST(TransportReplyBudget, SilentPeerTimesOutAfterTheRoundBudget) {
  // A listener nobody serves: the kernel completes the connect, but no
  // reply ever comes.
  SocketListener silent(SocketAddress::unix_path(socket_path("silent")));
  const auto factory = [addr = silent.address()] { return connect_to(addr); };
  const double budget_ms = static_cast<double>(kRounds) * 0.1;

  QueryCoordinatorConfig cfg;
  cfg.reply_rounds = kRounds;
  QueryCoordinator coord(cfg);
  coord.add_agent(factory);
  auto t0 = Clock::now();
  const auto stats = coord.per_agent_stats();
  double waited = ms_since(t0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].has_value());
  EXPECT_EQ(coord.stats().agent_failures, 1u);
  EXPECT_GE(waited, budget_ms);
  EXPECT_LT(waited, budget_ms + 400.0);

  CollectorClient client({}, factory);
  Query q;
  q.kind = QueryKind::kStats;
  t0 = Clock::now();
  EXPECT_FALSE(client.query(q, kRounds).has_value());
  waited = ms_since(t0);
  EXPECT_EQ(client.stats().queries_lost, 1u);
  EXPECT_GE(waited, budget_ms);
  EXPECT_LT(waited, budget_ms + 400.0);
}

}  // namespace
}  // namespace rlir::transport
