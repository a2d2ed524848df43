// ECMP next-hop selection and its receiver-side inversion.
//
// "routers typically use ECMP forwarding where a packet's source and
// destination IP addresses are typically hashed to identify the next hop ...
// we can 'reverse' engineer the intermediate router through which a packet
// may have originated" (Section 3.1, Downstream).
//
// Vendors do not publish their hash functions; the mechanism only needs a
// deterministic per-router function the receiver can evaluate. We provide
// several (CRC-32C, Jenkins lookup3, xor-fold) behind one interface, each
// salted per router so different routers make independent choices — as in
// real fabrics, where per-router hash seeds avoid polarization.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/flow_key.h"
#include "net/hash.h"
#include "topo/fattree.h"

namespace rlir::topo {

class EcmpHasher {
 public:
  virtual ~EcmpHasher() = default;

  /// Raw hash of a flow key, salted with a per-router seed.
  [[nodiscard]] virtual std::uint32_t hash(const net::FiveTuple& key,
                                           std::uint64_t router_salt) const = 0;

  /// Next-hop choice among `fanout` equal-cost links.
  [[nodiscard]] std::uint32_t select(const net::FiveTuple& key, std::uint64_t router_salt,
                                     std::uint32_t fanout) const {
    return fanout == 0 ? 0 : hash(key, router_salt) % fanout;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// CRC-32C over the canonicalized 5-tuple bytes with a nonlinear per-router
/// seed finalizer (typical hardware hash; the finalizer prevents the CRC
/// linearity polarization documented in the .cpp). The recommended default.
class Crc32EcmpHasher final : public EcmpHasher {
 public:
  [[nodiscard]] std::uint32_t hash(const net::FiveTuple& key,
                                   std::uint64_t router_salt) const override;
  [[nodiscard]] std::string name() const override { return "crc32c"; }
};

/// Jenkins lookup3.
class JenkinsEcmpHasher final : public EcmpHasher {
 public:
  [[nodiscard]] std::uint32_t hash(const net::FiveTuple& key,
                                   std::uint64_t router_salt) const override;
  [[nodiscard]] std::string name() const override { return "jenkins"; }
};

/// Xor-fold of src/dst/ports — the weakest and cheapest hardware option.
/// Deliberately kept linear in the salt: consecutive tiers using it make
/// perfectly correlated choices ("hash polarization"), so traffic collapses
/// onto a subset of cores. Tests use it to demonstrate the pathology; do not
/// use it as a fabric default.
class XorFoldEcmpHasher final : public EcmpHasher {
 public:
  [[nodiscard]] std::uint32_t hash(const net::FiveTuple& key,
                                   std::uint64_t router_salt) const override;
  [[nodiscard]] std::string name() const override { return "xorfold"; }
};

/// Per-router salt derived from topology position.
[[nodiscard]] std::uint64_t router_salt(const FatTree& topo, NodeId node);

/// Deterministic ECMP route of a flow between two ToRs:
/// the full switch path src_tor ... dst_tor chosen by per-hop hashing.
/// Same pod: via edge chosen by the ToR. Cross pod: ToR picks the edge
/// position, the edge picks the core.
[[nodiscard]] std::vector<NodeId> ecmp_route(const FatTree& topo, const EcmpHasher& hasher,
                                             const net::FiveTuple& key, NodeId src_tor,
                                             NodeId dst_tor);

/// Receiver-side inversion: which core does flow `key` from `src_tor` to
/// `dst_tor` traverse? Requires cross-pod src/dst; this is the computation
/// an RLIR downstream receiver runs when it knows the upstream hash
/// functions. Returns the core node; shares ecmp_route's hash choices but
/// builds no path, so it allocates nothing.
[[nodiscard]] NodeId reverse_ecmp_core(const FatTree& topo, const EcmpHasher& hasher,
                                       const net::FiveTuple& key, NodeId src_tor,
                                       NodeId dst_tor);

}  // namespace rlir::topo
