// Workload definitions and seeded input generation for the benchmark.
//
// Every input a run sends -- arrival times, op kinds, targets, moves, and
// the commuter replay's sightings and probes -- is generated here from the
// workload seed BEFORE any timing starts. The program under test only ever
// sees the generated inputs. Each input set carries a CRC so a run can show
// that equal seeds give equal inputs and different seeds different ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/service_area.hpp"
#include "geo/point.hpp"
#include "geo/rect.hpp"
#include "util/ids.hpp"

namespace pb {

using namespace locs;

enum class Workload { kHotLeafUpdate, kCityMixed, kCommuterReplay };

bool parse_workload(const std::string& name, Workload& out);

// --- UDP workloads ------------------------------------------------------------

/// Fixed knobs of one UDP workload. Rates are absolute numbers chosen once
/// (they never move with the code under test).
struct UdpSpec {
  std::size_t objects = 10000;
  std::uint32_t hot_shards = 0;  // shard reactors on the hot leaf (0: none)
  double nominal_rate = 0;       // ops/s
  double light_rate = 0;         // ops/s
  double search_start = 0;       // capacity search: first offered rate
  double search_max = 0;         // never offer more than this
  double latency_limit_us = 0;   // L: p99 limit of a passing trial
  double p_update = 1.0;         // share of updates; the rest are queries
  double step_m = 0;             // random-walk step per update (metres)
  double probe_rate = 0;         // hot-leaf query phase rate (ops/s)
};

UdpSpec udp_spec(Workload w);

/// Capacity search: ramp factor until the first failing rate, and the
/// fail/pass ratio at which bisection stops.
constexpr double kSearchStep = 1.25;
constexpr double kSearchResolution = 1.02;

constexpr double kUdpArea = 1500.0;
/// Client NodeIds of the generator: tracked objects' updates and queries.
constexpr NodeId kUpdater{100};
constexpr NodeId kQuerier{101};
/// Ports needed above the base port (server ids 1..5, clients 100..101).
constexpr std::uint16_t kPortSpan = 128;
/// Accuracy range every object registers with, and the sensor accuracy.
constexpr double kAccDesired = 10.0;
constexpr double kAccMinimum = 100.0;
constexpr double kSensorAcc = 5.0;
/// Query parameters shared by the generator and its oracle.
constexpr double kRangeHalf = 25.0;  // 50 m x 50 m range queries
constexpr double kReqAcc = 100.0;
constexpr double kReqOverlap = 0.5;
constexpr double kNearQual = 0.0;

/// The Table-2 topology over the 1.5 km square; on hot-leaf-update the hot
/// leaf (lowest leaf id) carries the shard hint.
core::HierarchySpec udp_topology(Workload w);
NodeId hot_leaf(const core::HierarchySpec& spec);

enum class OpKind : std::uint8_t { kUpdate = 0, kPos = 1, kRange = 2, kNN = 3 };
constexpr int kOpKinds = 4;
const char* op_kind_name(OpKind k);

struct Op {
  double t = 0;        // arrival time of a unit-rate Poisson stream (seconds)
  OpKind kind = OpKind::kUpdate;
  std::uint32_t obj = 0;  // object index (update, pos)
  geo::Point p;           // update: new position; range: centre; nn: point
  std::uint32_t entry = 0;  // entry server NodeId value (queries)
};

/// A unit-rate stream: phase rate r sends op i at t_i / r seconds.
struct UdpInputs {
  std::vector<geo::Point> initial;  // registration position per object
  std::vector<Op> search;   // replayed from its start by every search trial
  std::vector<Op> nominal;
  std::vector<Op> light;
  std::vector<Op> probe;    // hot-leaf query phase (queries only)
  std::uint32_t crc = 0;
};

/// Phase lengths (seconds) a run of `seconds` spends per phase.
struct UdpPhases {
  double trial = 1.0;   // one capacity-search trial
  double search = 0;    // time budget of the capacity search
  double nominal = 0;   // summed over the run's episodes
  double light = 0;
  double probe = 0;
};
UdpPhases udp_phases(Workload w, double seconds);

UdpInputs make_udp_inputs(Workload w, std::uint64_t seed, const UdpPhases& ph);

// --- Commuter replay ---------------------------------------------------------

struct ReplaySpec {
  std::size_t objects = 100000;
  int rounds = 8;
  std::size_t batch = 32;        // sightings per coalesced gateway batch
  std::size_t lone_per_round = 1000;  // single uncoalesced sightings per round
  std::size_t pos_probes = 300;  // probes per round
  std::size_t range_probes = 100;
  std::size_t nn_probes = 50;
  double range_half = 50.0;      // 100 m x 100 m probe ranges
  std::size_t scenarios = 3;     // commuter rushes replayed per run
};
ReplaySpec replay_spec();

struct Sight {
  std::uint32_t obj;
  geo::Point p;
};

struct Probe {
  OpKind kind;
  std::uint32_t obj;  // pos
  geo::Point p;       // range centre / nn point
};

struct ReplayInputs {
  std::vector<geo::Point> initial;
  std::vector<std::vector<Sight>> rounds;  // scenario sightings per round
  std::vector<std::vector<Sight>> lone;    // lone sightings after each round
  std::vector<std::vector<Probe>> probes;  // probes after each round
  std::uint32_t crc = 0;
};

ReplayInputs make_replay_inputs(std::uint64_t seed);

}  // namespace pb
