#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "benchgen/presets.hpp"
#include "gp/density.hpp"
#include "gp/rudy.hpp"

namespace perfbench {

void Report::count(const std::string& name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  counters[name] = buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.n = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  if (values.size() < 11) {
    t.value = values.back();
    t.label = "max";
    return t;
  }
  // The (n-10)-th smallest sample: exactly ten samples lie beyond it.
  const std::size_t rank = values.size() - 10;
  t.value = values[rank - 1];
  char label[16];
  std::snprintf(label, sizeof(label), "p%.4g",
                100.0 * static_cast<double>(rank) /
                    static_cast<double>(values.size()));
  t.label = label;
  return t;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmRSS:") == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

mp::benchgen::BenchSpec bench_design(const std::string& name,
                                     double cell_scale) {
  namespace bg = mp::benchgen;
  const auto find = [&](const std::vector<std::string>& names) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  bg::BenchSpec spec;
  if (const std::size_t i = find(bg::iccad04_names());
      i < bg::iccad04_names().size()) {
    spec = bg::iccad04_spec(i, cell_scale);
  } else if (const std::size_t j = find(bg::industrial_names());
             j < bg::industrial_names().size()) {
    spec = bg::industrial_spec(j, cell_scale);
  } else {
    throw std::runtime_error("unknown circuit " + name);
  }
  spec.movable_macros = std::max(4, spec.movable_macros / 4);
  spec.preplaced_macros /= 4;
  return spec;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

Quality measure_quality(const netlist::Design& design) {
  Quality q;
  q.hpwl = design.total_hpwl();
  // The final global placer's density view: std cells movable, every other
  // non-pad node an obstacle, bins as the placer picks them for this many
  // movable cells.
  const std::size_t cells = design.std_cells().size();
  const int bins = std::clamp(
      static_cast<int>(std::sqrt(static_cast<double>(cells)) / 2.0), 8, 128);
  mp::gp::DensityGrid grid(design.region(), bins, 0.9);
  std::vector<mp::geometry::Rect> rects;
  std::vector<unsigned char> movable;
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    const mp::netlist::Node& node =
        design.node(static_cast<mp::netlist::NodeId>(i));
    if (node.kind == mp::netlist::NodeKind::kPad) continue;
    rects.push_back(node.rect());
    movable.push_back(node.kind == mp::netlist::NodeKind::kStdCell ? 1 : 0);
  }
  grid.add_all(rects, movable);
  q.overflow = grid.overflow_ratio();
  q.rudy_peak = mp::gp::compute_rudy(design).max_density();
  return q;
}

std::string check_placement(const netlist::Design& design, bool finalized,
                            double hpwl) {
  if (!finalized) return "placement not finalized";
  if (!std::isfinite(hpwl)) return "non-finite HPWL";
  if (design.macro_overlap_area() != 0.0) return "macros overlap";
  if (!design.all_inside_region()) return "node outside the region";
  return "";
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void emit_layers(const Layers& l, Report& r) {
  r.metric("gp.initial_s", l.gp_initial_s, "s");
  r.metric("gp.initial_iterations", l.gp_initial_iterations, "count");
  r.metric("cluster.cluster_s", l.cluster_s, "s");
  r.metric("cluster.coarse_s", l.coarse_s, "s");
  r.metric("cluster.rss_growth_mb", l.cluster_rss_growth_mb, "MB");
  r.metric("cluster.macro_groups", l.macro_groups, "count");
  r.metric("cluster.cell_groups", l.cell_groups, "count");
  r.metric("prepare_s", l.prepare_s, "s");
  r.metric("rl.train_s", l.rl_train_s, "s");
  r.metric("rl.episodes", l.rl_episodes, "count");
  r.metric("rl.optimizer_steps", l.rl_optimizer_steps, "count");
  r.metric("rl.episodes_per_s",
           l.rl_train_s > 0.0 ? l.rl_episodes / l.rl_train_s : 0.0, "1/s");
  r.metric("mcts.search_s", l.mcts_search_s, "s");
  r.metric("mcts.nodes_created", l.mcts_nodes_created, "count");
  r.metric("mcts.nn_evaluations", l.mcts_nn_evaluations, "count");
  r.metric("mcts.terminal_evaluations", l.mcts_terminal_evaluations, "count");
  r.metric("legal.legalize_s", l.legalize_s, "s");
  r.metric("place.finalize_s", l.finalize_s, "s");
  r.metric("regulate.prepare_s", l.regulate_prepare_s, "s");
  r.metric("regulate.train_s", l.regulate_train_s, "s");
  r.metric("regulate.search_s", l.regulate_search_s, "s");
  r.metric("regulate.moved_groups", l.regulate_moved_groups, "count");
  r.metric("svc.queue_wait_p50_s", l.svc_queue_wait_p50_s, "s");
  r.metric("svc.run_p50_s", l.svc_run_p50_s, "s");
  r.metric("svc.overhead_p50_s", l.svc_overhead_p50_s, "s");
  r.metric("svc.cache_hit_ratio.design", l.svc_hit_ratio_design, "ratio");
  r.metric("svc.cache_hit_ratio.prepared", l.svc_hit_ratio_prepared, "ratio");
  r.metric("svc.cache_hit_ratio.weights", l.svc_hit_ratio_weights, "ratio");
  r.metric("svc.cache_hit_ratio.placement", l.svc_hit_ratio_placement,
           "ratio");
  r.metric("svc.refused", l.svc_refused, "count");
  r.metric("trace.traced_s", l.traced_s, "s");
  r.metric("trace.overhead_s", l.traced_s - l.untraced_s, "s");
  r.metric("unattributed_s", l.unattributed_s, "s");
}

}  // namespace perfbench
