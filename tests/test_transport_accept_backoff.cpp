// An agent whose accept() keeps failing must not spin. With the descriptor
// table full (EMFILE), accept() fails and leaves the connection queued, so
// the listener stays readable and a wait on it returns at once, every time.
// The agent leaves such a listener out of its next wait, retrying the accept
// once per idle period instead.
//
// Its own executable: the test lowers RLIMIT_NOFILE for the whole process.
#include <fcntl.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <thread>

#include "transport/agent.h"
#include "transport/socket.h"

namespace rlir::transport {
namespace {

using Clock = std::chrono::steady_clock;

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(TransportAcceptBackoff, FailingAcceptDoesNotSpinTheAgentLoop) {
  const std::string path = testing::TempDir() + "rlir_accept_backoff_" +
                           std::to_string(::getpid()) + ".sock";
  CollectorAgent agent;
  auto listener = std::make_unique<SocketListener>(SocketAddress::unix_path(path));
  const SocketAddress address = listener->address();
  agent.set_listener(std::move(listener));
  auto client = connect_to(address);  // queued in the backlog, not yet accepted
  ASSERT_NE(client, nullptr);

  // The lowest free descriptor number: with the soft limit there, every new
  // descriptor fails with EMFILE.
  const int lowest_free = ::fcntl(client->native_handle(), F_DUPFD, 0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  std::atomic<bool> stop{false};
  std::thread loop([&] { agent.run(stop, timebase::Duration::milliseconds(1)); });
  clockid_t loop_clock{};
  const bool have_clock = ::pthread_getcpuclockid(loop.native_handle(), &loop_clock) == 0;
  double cpu = 0.0;
  double wall = 0.0;
  if (have_clock) {
    const double cpu0 = cpu_seconds(loop_clock);
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cpu = cpu_seconds(loop_clock) - cpu0;  // read while the thread still exists
    wall = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  stop.store(true);
  loop.join();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(have_clock);

  // accept() failed throughout, and the loop mostly slept through it.
  EXPECT_EQ(agent.connections_accepted(), 0u);
  EXPECT_LT(cpu, 0.25 * wall) << "agent loop used " << cpu << " s of CPU in " << wall << " s";

  // With descriptors available again, the queued client is accepted.
  for (int i = 0; i < 100 && agent.connection_count() == 0; ++i) {
    agent.poll();
    agent.wait(timebase::Duration::milliseconds(1));
  }
  EXPECT_EQ(agent.connections_accepted(), 1u);
  EXPECT_EQ(agent.connection_count(), 1u);
}

}  // namespace
}  // namespace rlir::transport
