// Unit tests: net/prefix_table.h — longest-prefix-match table (flat hash
// per prefix length, probed longest first).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/prefix_table.h"

namespace rlir::net {
namespace {

TEST(PrefixTable, EmptyTableMatchesNothing) {
  const PrefixTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(Ipv4Address(1, 2, 3, 4)));
  EXPECT_EQ(table.lookup_ptr(Ipv4Address(1, 2, 3, 4)), nullptr);
}

TEST(PrefixTable, ExactPrefixMatch) {
  PrefixTable<std::string> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), "tor-a");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 3)), "tor-a");
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 2, 0, 0)));
  EXPECT_EQ(table.size(), 1u);
}

TEST(PrefixTable, LongestPrefixWins) {
  PrefixTable<std::string> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8), "wide");
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), "mid");
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 2, 0), 24), "narrow");

  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 99)), "narrow");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 9, 9)), "mid");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 200, 0, 1)), "wide");
  EXPECT_FALSE(table.lookup(Ipv4Address(11, 0, 0, 1)));
}

TEST(PrefixTable, DefaultRoute) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(0u), 0), -1);
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8), 10);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 5, 5, 5)), 10);
  EXPECT_EQ(table.lookup(Ipv4Address(99, 9, 9, 9)), -1);
}

TEST(PrefixTable, InsertOverwrites) {
  PrefixTable<int> table;
  const Ipv4Prefix p(Ipv4Address(10, 0, 0, 0), 8);
  table.insert(p, 1);
  table.insert(p, 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 1)), 2);
}

TEST(PrefixTable, HostRoutes) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32), 1);
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32), 2);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 1)), 1);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 2)), 2);
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 0, 0, 3)));
}

TEST(PrefixTable, FindExact) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), 7);
  EXPECT_EQ(table.find_exact(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16)), 7);
  // Covering/covered prefixes are not exact matches.
  EXPECT_FALSE(table.find_exact(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 24)));
  EXPECT_FALSE(table.find_exact(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8)));
}

// Regression: inserting many prefixes regrows the table's storage; every
// entry must stay reachable (this once hid a use-after-free on vector growth).
TEST(PrefixTable, ManyInsertsSurviveReallocation) {
  PrefixTable<int> table;
  for (int pod = 0; pod < 48; ++pod) {
    for (int tor = 0; tor < 24; ++tor) {
      table.insert(Ipv4Prefix(Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                          static_cast<std::uint8_t>(tor), 0),
                              24),
                   pod * 100 + tor);
    }
  }
  EXPECT_EQ(table.size(), 48u * 24u);
  for (int pod = 0; pod < 48; ++pod) {
    for (int tor = 0; tor < 24; ++tor) {
      const auto hit = table.lookup(Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                                static_cast<std::uint8_t>(tor), 9));
      ASSERT_TRUE(hit);
      EXPECT_EQ(*hit, pod * 100 + tor);
    }
  }
}

// Property: the table agrees with brute-force LPM over random rule sets.
class PrefixTableRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTableRandomSweep, AgreesWithBruteForce) {
  common::Xoshiro256 rng(GetParam());
  PrefixTable<std::size_t> table;
  std::vector<Ipv4Prefix> rules;
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_u64(25) + 8);  // /8../32
    const Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())), len);
    // Skip duplicates (insert would overwrite; brute force keeps first).
    bool dup = false;
    for (const auto& r : rules) dup = dup || r == p;
    if (dup) continue;
    table.insert(p, rules.size());
    rules.push_back(p);
  }

  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address addr(static_cast<std::uint32_t>(rng.next()));
    // Brute force: the longest rule containing addr.
    int best = -1;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].contains(addr) &&
          (best < 0 || rules[r].length() > rules[static_cast<std::size_t>(best)].length())) {
        best = static_cast<int>(r);
      }
    }
    const auto got = table.lookup(addr);
    if (best < 0) {
      EXPECT_FALSE(got);
    } else {
      ASSERT_TRUE(got);
      EXPECT_EQ(rules[*got].length(), rules[static_cast<std::size_t>(best)].length());
      EXPECT_TRUE(rules[*got].contains(addr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTableRandomSweep, ::testing::Values(1, 2, 3, 4, 5));


// Property: against a linear-scan model with overwrite semantics, over rule
// sets mixing every length /0../32. Bases come from a small pool so prefixes
// nest and repeat (overwrites); queries land near the pool so deep matches
// are exercised, not only the short prefixes a random address would hit.
class PrefixTableModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTableModelSweep, MatchesLinearScanModel) {
  common::Xoshiro256 rng(GetParam());
  std::vector<std::uint32_t> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(static_cast<std::uint32_t>(rng.next()));
  auto near_pool = [&] {
    // Randomize the low 32-s bits: the address keeps s leading bits of a pool base.
    const auto flip = static_cast<std::uint32_t>((rng.next() >> 32) >> rng.uniform_u64(33));
    return Ipv4Address(pool[rng.uniform_u64(pool.size())] ^ flip);
  };

  PrefixTable<int> table;
  std::vector<std::pair<Ipv4Prefix, int>> model;
  auto model_lookup = [&](Ipv4Address addr) -> std::optional<int> {
    const std::pair<Ipv4Prefix, int>* best = nullptr;
    for (const auto& rule : model) {
      if (!rule.first.contains(addr)) continue;
      if (best == nullptr || rule.first.length() > best->first.length()) {
        best = &rule;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->second;
  };

  for (int step = 0; step < 300; ++step) {
    const Ipv4Prefix prefix(near_pool(), static_cast<std::uint8_t>(rng.uniform_u64(33)));
    const int value = step;
    table.insert(prefix, value);
    bool overwrote = false;
    for (auto& rule : model) {
      if (rule.first == prefix) {
        rule.second = value;
        overwrote = true;
      }
    }
    if (!overwrote) model.emplace_back(prefix, value);
    ASSERT_EQ(table.size(), model.size());
    ASSERT_FALSE(table.empty());

    for (int q = 0; q < 20; ++q) {
      const Ipv4Address addr =
          q % 4 == 0 ? Ipv4Address(static_cast<std::uint32_t>(rng.next())) : near_pool();
      const std::optional<int> want = model_lookup(addr);
      ASSERT_EQ(table.lookup(addr), want) << addr.to_string();
      const int* ptr = table.lookup_ptr(addr);
      ASSERT_EQ(ptr == nullptr, !want.has_value()) << addr.to_string();
      if (ptr != nullptr) {
        ASSERT_EQ(*ptr, *want);
      }
    }

    const Ipv4Prefix probe(near_pool(), static_cast<std::uint8_t>(rng.uniform_u64(33)));
    std::optional<int> want_exact;
    for (const auto& rule : model) {
      if (rule.first == probe) want_exact = rule.second;
    }
    ASSERT_EQ(table.find_exact(probe), want_exact) << probe.to_string();
  }
  for (const auto& [prefix, value] : model) {
    EXPECT_EQ(table.find_exact(prefix), value) << prefix.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTableModelSweep,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace rlir::net
