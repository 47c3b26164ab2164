#pragma once
// Shared plumbing of the repository benchmark: run arguments, the report a
// workload fills, sample statistics, memory probes and the placement output
// checks.  Everything here calls only public entry points of the libraries
// under src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "netlist/design.hpp"
#include "place/placer.hpp"

namespace perfbench {

namespace netlist = mp::netlist;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (incumbent .pl, weights)
};

/// What one workload run produced.  `metrics` are the reported figures in
/// order; `counters` are deterministic work counts and quality figures that
/// must repeat exactly for equal (workload, seed, trace); `info` is
/// provenance and labels.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::string> counters;
  std::map<std::string, std::string> info;
  long long attempted = 0;
  long long failed = 0;
  /// Hard failures (nondeterminism inside the run, a traced decomposition
  /// that does not reproduce the untraced placement).  Any entry makes the
  /// command fail.
  std::vector<std::string> errors;
  /// Output-check violations; each also counts toward `failed`.
  std::vector<std::string> violations;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a deterministic counter with every digit (%.17g).
  void count(const std::string& name, double value);
  void count(const std::string& name, const std::string& value) {
    counters[name] = value;
  }
  void violation(const std::string& what) {
    violations.push_back(what);
    ++failed;
  }
};

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);

/// Highest percentile with at least ten samples beyond it (choosing-metrics
/// rule), labelled e.g. "p68.75"; with fewer than eleven samples none
/// qualifies and the maximum is reported, labelled "max".
struct Tail {
  double value = 0.0;
  std::string label;
  std::size_t n = 0;
};
Tail tail(std::vector<double> values);

double geomean(const std::vector<double>& values);

/// Peak resident set size of this process (getrusage), in MiB.
double peak_rss_mb();
/// Current resident set size, in MiB.
double current_rss_mb();

/// A table-bench circuit ("ibm07", "Cir1", ...) with std cells and nets
/// scaled by `cell_scale` and a quarter of the published macro count (at
/// least four movable macros).  The netlist keeps the preset's own seed, so
/// every run places the same circuits the table benches place; run seeds
/// drive the placer and the ECO inputs instead.  (Netlists drawn from the
/// run seed cluster into different group counts, which moved place_s by
/// ~10% from seed to seed.)
mp::benchgen::BenchSpec bench_design(const std::string& name,
                                     double cell_scale);

/// Deterministic 64-bit seed derivation (splitmix64 of seed and salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The quality vector of a finished placement.
struct Quality {
  double hpwl = 0.0;
  double overflow = 0.0;   ///< final cell-density overflow (gp::DensityGrid)
  double rudy_peak = 0.0;  ///< peak RUDY congestion (gp::compute_rudy)
};
Quality measure_quality(const netlist::Design& design);

/// Output checks shared by every placement: finalized, zero macro overlap,
/// inside the region, finite HPWL.  Returns an empty string when all hold,
/// else the first violation.
std::string check_placement(const netlist::Design& design, bool finalized,
                            double hpwl);

std::string hex64(std::uint64_t v);

/// Per-layer figures of a traced run.  Every workload reports the whole set
/// (layers a workload does not exercise stay 0), so the traced metric list
/// is the same everywhere.  Times are summed over the placements the traced
/// run decomposes.
struct Layers {
  double gp_initial_s = 0.0;
  double gp_initial_iterations = 0.0;
  double cluster_s = 0.0;
  double coarse_s = 0.0;
  double cluster_rss_growth_mb = 0.0;
  double macro_groups = 0.0;
  double cell_groups = 0.0;
  double prepare_s = 0.0;
  double rl_train_s = 0.0;
  double rl_episodes = 0.0;
  double rl_optimizer_steps = 0.0;
  double mcts_search_s = 0.0;
  double mcts_nodes_created = 0.0;
  double mcts_nn_evaluations = 0.0;
  double mcts_terminal_evaluations = 0.0;
  double legalize_s = 0.0;
  double finalize_s = 0.0;
  double regulate_prepare_s = 0.0;
  double regulate_train_s = 0.0;
  double regulate_search_s = 0.0;
  double regulate_moved_groups = 0.0;
  double svc_queue_wait_p50_s = 0.0;
  double svc_run_p50_s = 0.0;
  double svc_overhead_p50_s = 0.0;
  double svc_hit_ratio_design = 0.0;
  double svc_hit_ratio_prepared = 0.0;
  double svc_hit_ratio_weights = 0.0;
  double svc_hit_ratio_placement = 0.0;
  double svc_refused = 0.0;
  /// Wall time of the traced decomposition and of the same placements run
  /// untraced; their difference is the tracing overhead.
  double traced_s = 0.0;
  double untraced_s = 0.0;
  /// Traced wall time not covered by any layer above.
  double unattributed_s = 0.0;
};

/// Appends every per-layer metric, in a fixed order, to `report`.
void emit_layers(const Layers& layers, Report& report);

/// One placement cut at the public layer boundaries (place_workloads.cpp).
struct PlacementTrace {
  double gp_s = 0.0;
  int gp_iterations = 0;
  double cluster_s = 0.0;
  double rss_growth_mb = 0.0;
  double coarse_s = 0.0;
  double prepare_s = 0.0;
  double run_s = 0.0;  ///< place::run on the prepared flow
  double train_s = 0.0;
  int episodes = 0;
  int optimizer_steps = 0;
  double mcts_s = 0.0;
  long long nodes_created = 0;
  long long nn_evaluations = 0;
  long long terminal_evaluations = 0;
  double legalize_s = 0.0;
  double finalize_s = 0.0;
  int macro_groups = 0;
  int cell_groups = 0;
};

/// Decomposes a cold mcts/rl_only placement of `base` under `spec` and
/// checks that it reproduces `untraced_fingerprint`; mismatches are
/// recorded as hard errors in `report`.
PlacementTrace trace_placement(const netlist::Design& base,
                               const mp::place::PlacerSpec& spec,
                               const std::string& name,
                               std::uint64_t untraced_fingerprint,
                               Report& report);

/// Adds a trace to the layer sums; `with_prepare` false leaves out the
/// preprocessing layers (served jobs get them from the artifact cache).
void add_trace(const PlacementTrace& trace, bool with_prepare, Layers& layers);

/// Workload entry points.  Each fills `report` and returns normally; output
/// violations and hard errors are recorded in the report.
void run_place_workload(const Args& args, Report& report);
void run_serve_eco(const Args& args, Report& report);

}  // namespace perfbench
