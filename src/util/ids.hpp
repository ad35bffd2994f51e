// Strong identifier types used across the location service.
//
// The paper's namespace OId (tracked-object identifiers) maps to ObjectId;
// location servers and clients are both network nodes and are addressed by
// NodeId on the transport layer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace locs {

/// Identifier of a tracked object, unique in the location service's
/// namespace OId (paper §3.1, sighting record field s.oId).
struct ObjectId {
  std::uint64_t value = 0;

  constexpr ObjectId() = default;
  constexpr explicit ObjectId(std::uint64_t v) : value(v) {}

  friend constexpr bool operator==(ObjectId a, ObjectId b) { return a.value == b.value; }
  friend constexpr bool operator!=(ObjectId a, ObjectId b) { return a.value != b.value; }
  friend constexpr bool operator<(ObjectId a, ObjectId b) { return a.value < b.value; }
};

/// Address of a node (location server, tracked object or client) on the
/// transport layer. NodeId 0 is reserved as "invalid / undefined" -- the
/// paper's epsilon, e.g. c.parent of the root server.
struct NodeId {
  std::uint32_t value = 0;

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : value(v) {}

  constexpr bool valid() const { return value != 0; }

  friend constexpr bool operator==(NodeId a, NodeId b) { return a.value == b.value; }
  friend constexpr bool operator!=(NodeId a, NodeId b) { return a.value != b.value; }
  friend constexpr bool operator<(NodeId a, NodeId b) { return a.value < b.value; }
};

/// The paper's epsilon: "For the root server s.parent is undefined".
inline constexpr NodeId kNoNode{};

/// The one ObjectId hash (SplitMix64 finalizer): ObjectIds are often
/// sequential, this spreads them. std::hash<ObjectId> and the flat
/// util::OidSet / util::OidMap tables all call it.
constexpr std::uint64_t hash_oid(ObjectId id) noexcept {
  std::uint64_t x = id.value + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::string to_string(ObjectId id) { return "o" + std::to_string(id.value); }
inline std::string to_string(NodeId id) { return "n" + std::to_string(id.value); }

}  // namespace locs

template <>
struct std::hash<locs::ObjectId> {
  std::size_t operator()(locs::ObjectId id) const noexcept {
    return static_cast<std::size_t>(locs::hash_oid(id));
  }
};

template <>
struct std::hash<locs::NodeId> {
  std::size_t operator()(locs::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
