// locbench: the repository benchmark's binary (perfbench/run.py
// orchestrates it). Modes:
//   server  -- hosts the UDP deployment (line commands on stdin)
//   gen     -- open-loop load generator for the UDP workloads
//   replay  -- the in-process commuter replay
// Common flags: --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--port <base>] [--spans <csv path>]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  pb::Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: locbench server|gen|replay --workload W --seed N ...\n");
    return 2;
  }
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      if (!pb::parse_workload(v, args.workload)) {
        std::fprintf(stderr, "unknown workload %s\n", v.c_str());
        return 2;
      }
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--port") {
      args.port = static_cast<std::uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--spans") {
      args.span_path = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (args.mode == "server") return pb::run_server(args);
  if (args.mode == "gen") return pb::run_generator(args);
  if (args.mode == "replay") return pb::run_replay(args);
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
