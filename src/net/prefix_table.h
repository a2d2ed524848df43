// Longest-prefix-match table over IPv4 prefixes.
//
// One exact-match flat hash map keyed by (length, masked base), probed
// longest length first over the distinct lengths present. A demultiplexer's
// rules mostly share one length (one /24 per ToR block), so a lookup is
// usually a single probe, with no allocation and no pointer chasing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/flat_hash_map.h"
#include "net/hash.h"
#include "net/ipv4.h"

namespace rlir::net {

template <typename T>
class PrefixTable {
 public:
  /// Inserts or overwrites the value for a prefix.
  void insert(const Ipv4Prefix& prefix, T value) {
    auto [it, inserted] = entries_.try_emplace(key_of(prefix), std::move(value));
    if (!inserted) {
      it->second = std::move(value);  // try_emplace left `value` untouched
      return;
    }
    if (std::find(lengths_.begin(), lengths_.end(), prefix.length()) == lengths_.end()) {
      lengths_.push_back(prefix.length());
      std::sort(lengths_.begin(), lengths_.end(), std::greater<>());
    }
  }

  /// Longest-prefix match; nullopt when no inserted prefix covers `addr`.
  [[nodiscard]] std::optional<T> lookup(Ipv4Address addr) const {
    const T* p = lookup_ptr(addr);
    if (p == nullptr) return std::nullopt;
    return *p;
  }

  /// Pointer form of lookup (no copy); nullptr when there is no match.
  /// The pointer is invalidated by the next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Address addr) const {
    for (const std::uint8_t length : lengths_) {
      const auto it = entries_.find(key_of(Ipv4Prefix(addr, length)));
      if (it != entries_.end()) return &it->second;
    }
    return nullptr;
  }

  /// Exact-match retrieval of a previously inserted prefix.
  [[nodiscard]] std::optional<T> find_exact(const Ipv4Prefix& prefix) const {
    const auto it = entries_.find(key_of(prefix));
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  /// std::hash<uint64_t> is the identity, and the slot index is the key's
  /// low bits — which a /24 base leaves zero. Mix first.
  struct KeyHash {
    std::size_t operator()(std::uint64_t key) const { return mix64(key); }
  };

  [[nodiscard]] static std::uint64_t key_of(const Ipv4Prefix& prefix) {
    return (std::uint64_t{prefix.length()} << 32) | prefix.base().value();
  }

  common::FlatHashMap<std::uint64_t, T, KeyHash> entries_;
  /// Distinct prefix lengths present, longest first.
  std::vector<std::uint8_t> lengths_;
};

}  // namespace rlir::net
