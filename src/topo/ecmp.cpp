#include "topo/ecmp.h"

#include <array>
#include <stdexcept>

namespace rlir::topo {

namespace {

/// Canonical byte representation of a flow key for hashing: fixed layout,
/// little-endian, salted by prepending the router salt.
std::array<std::byte, 21> key_bytes(const net::FiveTuple& key, std::uint64_t salt) {
  std::array<std::byte, 21> buf{};
  auto put32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[at + i] = static_cast<std::byte>(v >> (8 * i));
  };
  auto put16 = [&](std::size_t at, std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf[at + i] = static_cast<std::byte>(v >> (8 * i));
  };
  put32(0, static_cast<std::uint32_t>(salt));
  put32(4, static_cast<std::uint32_t>(salt >> 32));
  put32(8, key.src.value());
  put32(12, key.dst.value());
  put16(16, key.src_port);
  put16(18, key.dst_port);
  buf[20] = static_cast<std::byte>(key.proto);
  return buf;
}

/// Hash choice of `router` among its k/2 uplinks: the ToR picks the edge
/// position, the edge picks the core offset.
int uplink(const FatTree& topo, const EcmpHasher& hasher, const net::FiveTuple& key,
           NodeId router) {
  const auto half = static_cast<std::uint32_t>(topo.k() / 2);
  return static_cast<int>(hasher.select(key, router_salt(topo, router), half));
}

}  // namespace

std::uint32_t Crc32EcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  // CRC alone polarizes: CRC is linear, so crc(salt_a || key) and
  // crc(salt_b || key) differ by a key-independent constant and two routers
  // make perfectly correlated ECMP choices (real fabrics hit exactly this).
  // Hardware implementations therefore mix the seed nonlinearly after the
  // CRC stage; we do the same.
  const auto bytes = key_bytes(key, salt);
  const std::uint32_t crc = net::crc32c(bytes);
  return static_cast<std::uint32_t>(net::mix64(static_cast<std::uint64_t>(crc) ^ salt));
}

std::uint32_t JenkinsEcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  const auto bytes = key_bytes(key, salt);
  return net::jenkins_lookup3(bytes);
}

std::uint32_t XorFoldEcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  // Hardware-style: fold addresses and ports, xor with a folded salt.
  const std::uint32_t folded_salt =
      static_cast<std::uint32_t>(salt) ^ static_cast<std::uint32_t>(salt >> 32);
  std::uint32_t h = key.src.value() ^ key.dst.value() ^ folded_salt;
  h ^= (std::uint32_t{key.src_port} << 16) | key.dst_port;
  h ^= key.proto;
  return net::xor_fold16(h);
}

std::uint64_t router_salt(const FatTree& topo, NodeId node) {
  return net::mix64(0x5a175a17ULL ^ topo.flat_index(node));
}

std::vector<NodeId> ecmp_route(const FatTree& topo, const EcmpHasher& hasher,
                               const net::FiveTuple& key, NodeId src_tor, NodeId dst_tor) {
  if (src_tor == dst_tor) return {src_tor};
  const int edge_pos = uplink(topo, hasher, key, src_tor);
  const NodeId up_edge = topo.edge(src_tor.pod, edge_pos);
  if (src_tor.pod == dst_tor.pod) return {src_tor, up_edge, dst_tor};
  return {src_tor, up_edge, topo.core_for(edge_pos, uplink(topo, hasher, key, up_edge)),
          topo.edge(dst_tor.pod, edge_pos), dst_tor};
}

NodeId reverse_ecmp_core(const FatTree& topo, const EcmpHasher& hasher,
                         const net::FiveTuple& key, NodeId src_tor, NodeId dst_tor) {
  if (src_tor.pod == dst_tor.pod) {
    throw std::invalid_argument("reverse_ecmp_core: same-pod flows do not cross a core");
  }
  // ecmp_route's two upstream hash choices, without building the path.
  const int edge_pos = uplink(topo, hasher, key, src_tor);
  const NodeId up_edge = topo.edge(src_tor.pod, edge_pos);
  return topo.core_for(edge_pos, uplink(topo, hasher, key, up_edge));
}

}  // namespace rlir::topo
