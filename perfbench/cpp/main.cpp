// perfbench_run — runs one benchmark workload in this process and prints
// its metrics, one per line, then a machine-readable `PERFBENCH_RESULT`
// line (metrics, deterministic counters, provenance, check results) that
// perfbench/run.py turns into the benchmark's result.
//
//   perfbench_run --workload place_mcts|place_large|serve_eco --seed N
//                 --seconds S --trace 0|1 --work DIR

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "par/par.hpp"
#include "util/log.hpp"

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += escape(s);
  out += '"';
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string string_map(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + quoted(v);
  }
  return out + "}";
}

std::string string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (const std::string& s : v) {
    if (out.size() > 1) out += ",";
    out += quoted(s);
  }
  return out + "]";
}

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--work") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload W --seed N --seconds S "
                 "--trace 0|1 --work DIR\n");
    return 2;
  }
  mp::util::set_log_level(mp::util::LogLevel::kWarn);
  // One malloc arena: with per-thread arenas, which of the service's short-
  // lived job threads lands on which arena depends on timing, and peak RSS
  // of serve_eco moved by ~15% from run to run.
  mallopt(M_ARENA_MAX, 1);

  perfbench::Report report;
  try {
    if (args.workload == "place_mcts" || args.workload == "place_large") {
      perfbench::run_place_workload(args, report);
    } else if (args.workload == "serve_eco") {
      perfbench::run_serve_eco(args, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  if (!args.trace) {
    const double attempted = static_cast<double>(report.attempted);
    report.metric("ok_rate",
                  attempted > 0.0
                      ? (attempted - static_cast<double>(report.failed)) / attempted
                      : 0.0,
                  "ratio");
  }
  report.info["compiler"] = PERFBENCH_CXX_ID;
  report.info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  report.info["par_threads"] = std::to_string(mp::par::num_threads());

  std::string metrics = "{";
  for (const perfbench::Report::Metric& m : report.metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (metrics.size() > 1) metrics += ",";
    metrics += quoted(m.name) + ":{\"value\":" + number(m.value) +
               ",\"unit\":" + quoted(m.unit) + "}";
  }
  metrics += "}";
  for (const std::string& v : report.violations) {
    std::printf("  check failed: %s\n", v.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  std::printf("PERFBENCH_RESULT {\"attempted\":%lld,\"failed\":%lld,"
              "\"errors\":%s,\"violations\":%s,\"metrics\":%s,"
              "\"counters\":%s,\"info\":%s}\n",
              report.attempted, report.failed,
              string_list(report.errors).c_str(),
              string_list(report.violations).c_str(), metrics.c_str(),
              string_map(report.counters).c_str(),
              string_map(report.info).c_str());
  std::fflush(stdout);
  return 0;
}
