// perfbench: runs one workload of the replication benchmark and prints one
// JSON object on its last stdout line (perfbench/run.py turns it into the
// benchmark's result line). Usage:
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--dump-prefix PATH]
//
// The seed fixes every input (population, backlog, arrival schedule, write
// stream, reader queries); the system under test receives only those.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "phases.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":" + buf;
  }
  return out + "}";
}

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--dump-prefix PATH]\nworkloads:",
               msg);
  for (const perfbench::WorkloadSpec& spec : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--dump-prefix") {
      options.dump_prefix = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  options.spec = perfbench::FindWorkload(workload);
  if (options.spec == nullptr) return Usage("unknown or missing --workload");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const perfbench::RunResult result = perfbench::RunWorkload(options);

  std::map<std::string, std::string> env = {
      {"workload", JsonString(options.spec->name)},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"regime", JsonString("sim")},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"timerslack_ns", JsonString(ReadFirstLine("/proc/self/timerslack_ns"))},
      {"compiler", JsonString(PERFBENCH_COMPILER)},
      {"build_type", JsonString(PERFBENCH_BUILD_TYPE)},
  };
  std::string env_json = "{";
  for (const auto& [key, value] : env) {
    if (env_json.size() > 1) env_json += ",";
    env_json += JsonString(key) + ":" + value;
  }
  env_json += "}";
  std::string series = "{";
  for (const auto& [name, values] : result.series) {
    if (series.size() > 1) series += ",";
    series += JsonString(name) + ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
      series += buf;
    }
    series += "]";
  }
  series += "}";
  std::string problems = "[";
  for (const std::string& p : result.problems) {
    if (problems.size() > 1) problems += ",";
    problems += JsonString(p);
  }
  problems += "]";

  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"problems\":%s,"
      "\"env\":%s,\"e2e\":%s,\"layer\":%s,\"info\":%s,\"series\":%s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), problems.c_str(), env_json.c_str(),
      JsonNumbers(result.e2e).c_str(), JsonNumbers(result.layer).c_str(),
      JsonNumbers(result.info).c_str(), series.c_str());
  std::fflush(stdout);
  return 0;
}
