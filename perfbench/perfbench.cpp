// End-to-end benchmark driver for mpte.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints a readable report, then, as
// the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// README.md beside this file defines every metric and workload.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const auto& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    }
    if (!parse_number(value, &number) || number < 0) return usage();
    if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::strtoull(value, nullptr, 10));
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty()) return usage();

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::printf("%-36s %s %s\n", m.name.c_str(), value, m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
