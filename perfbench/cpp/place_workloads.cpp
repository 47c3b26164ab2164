// place_mcts and place_large: cold place::run over a fixed design set, and
// the traced decomposition of the same placements into their layers.

#include <algorithm>
#include <atomic>
#include <thread>

#include "benchgen/presets.hpp"
#include "cluster/clustering.hpp"
#include "cluster/coarse.hpp"
#include "common.hpp"
#include "gp/global_placer.hpp"
#include "legal/legalizer.hpp"
#include "nn/serialize.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "rl/agent.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/env.hpp"
#include "rl/trainer.hpp"
#include "svc/service.hpp"

namespace perfbench {

using namespace mp;

namespace {

struct PlaceConfig {
  std::vector<benchgen::BenchSpec> designs;
  place::PresetKnobs knobs;
  int threads = 1;
};

PlaceConfig config_for(const Args& args) {
  PlaceConfig c;
  if (args.workload == "place_mcts") {
    // Default knobs (episodes 60, gamma 24, grid 16): training dominates.
    c.threads = 2;
    c.designs = {bench_design("ibm07", 0.03), bench_design("ibm18", 0.03)};
  } else {
    // Large designs, minimal RL budget: preprocessing and finalize dominate.
    c.threads = 1;
    c.knobs.episodes = 6;
    c.knobs.gamma = 4;
    c.designs = {bench_design("ibm18", 0.10), bench_design("Cir1", 0.10)};
  }
  c.knobs.seed = derive_seed(args.seed, 0x5eed);
  return c;
}

struct Placement {
  double seconds = 0.0;
  double input_hpwl = 0.0;
  Quality quality;
  std::uint64_t fingerprint = 0;
  place::PlaceResult result;
};

// One cold placement, exactly as a caller of the public API runs it.
Placement place_cold(const netlist::Design& base, const place::PlacerSpec& spec,
                     const std::string& name, Report& report) {
  Placement p;
  netlist::Design design = base;
  p.input_hpwl = design.total_hpwl();
  const Clock::time_point start = Clock::now();
  p.result = place::run(design, spec);
  p.seconds = since(start);
  p.quality = measure_quality(design);
  p.fingerprint = svc::placement_fingerprint(design);
  ++report.attempted;
  const std::string bad =
      check_placement(design, p.result.finalized, p.result.hpwl);
  if (!bad.empty()) report.violation(name + ": " + bad);
  return p;
}

}  // namespace

// The same placement cut at the public layer boundaries: the preprocessing
// calls of place::prepare_flow, then place::run on the prepared flow, then
// standalone replays of training, legalization and finalize on fresh copies
// of the prepared state (finalize mutates the coarse design, so a replay on
// a reused context would do different work).
PlacementTrace trace_placement(const netlist::Design& base,
                               const place::PlacerSpec& spec,
                               const std::string& name,
                               std::uint64_t untraced_fingerprint,
                               Report& report) {
  const place::FlowOptions& flow = spec.mcts_rl.flow;
  PlacementTrace out;
  netlist::Design design = base;
  const Clock::time_point begin = Clock::now();

  Clock::time_point t = Clock::now();
  out.gp_iterations = gp::global_place(design, flow.initial_gp).iterations;
  out.gp_s = since(t);

  place::FlowContext context{grid::GridSpec(design.region(), flow.grid_dim),
                             {}, {}};
  {
    // The process high-water mark already holds the untraced pass, so
    // clustering's growth is sampled while it runs.
    const double rss_before = current_rss_mb();
    std::atomic<bool> done{false};
    double rss_max = rss_before;
    std::thread sampler([&] {
      while (!done.load()) {
        rss_max = std::max(rss_max, current_rss_mb());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    t = Clock::now();
    context.clustering =
        cluster::cluster_design(design, context.spec, flow.cluster);
    out.cluster_s = since(t);
    done = true;
    sampler.join();
    out.rss_growth_mb = std::max(0.0, rss_max - rss_before);
  }

  t = Clock::now();
  context.coarse = cluster::build_coarse_design(design, context.clustering);
  out.coarse_s = since(t);
  out.prepare_s = since(begin);

  const netlist::Design prepared_design = design;
  const place::FlowContext prepared_context = context;
  place::PreparedFlow prepared{std::move(context)};
  t = Clock::now();
  const place::PlaceResult r = place::run(design, spec, &prepared);
  out.run_s = since(t);
  out.mcts_s = r.mcts_seconds;
  out.nodes_created = r.mcts_result.nodes_created;
  out.nn_evaluations = r.mcts_result.nn_evaluations;
  out.terminal_evaluations = r.mcts_result.terminal_evaluations;
  out.macro_groups = r.macro_groups;
  out.cell_groups = r.cell_groups;
  const std::uint64_t fingerprint = svc::placement_fingerprint(design);
  if (fingerprint != untraced_fingerprint) {
    report.errors.push_back(name + ": traced placement " + hex64(fingerprint) +
                            " differs from untraced " +
                            hex64(untraced_fingerprint));
  }

  // rl: pre-training alone, set up as place::run sets it up.
  {
    place::FlowContext c = prepared_context;
    rl::AgentConfig agent_config = spec.mcts_rl.agent;
    agent_config.grid_dim = flow.grid_dim;
    rl::AgentNetwork agent(agent_config);
    if (!spec.mcts_rl.initial_parameters.empty()) {
      nn::restore_parameters(agent.parameters(),
                             spec.mcts_rl.initial_parameters);
    }
    rl::PlacementEnv env(c.coarse, c.clustering, c.spec);
    rl::CoarseEvaluator evaluator(c.coarse, c.spec);
    evaluator.set_overflow_penalty(spec.mcts_rl.overflow_penalty);
    t = Clock::now();
    const rl::TrainResult trained =
        rl::train_agent(env, evaluator, agent, spec.mcts_rl.train);
    out.train_s = since(t);
    out.episodes = static_cast<int>(trained.episodes.size());
    out.optimizer_steps = trained.optimizer_steps;
    if (trained.best_wirelength != r.train_result.best_wirelength) {
      report.errors.push_back(name + ": standalone training did not "
                              "reproduce the flow's best wirelength");
    }
  }

  // legal: macro legalization alone, from the flow's final anchors.
  {
    netlist::Design d = prepared_design;
    place::FlowContext c = prepared_context;
    t = Clock::now();
    legal::legalize_groups(d, c.coarse, c.clustering, c.spec,
                           r.mcts_result.anchors, flow.legalize);
    out.legalize_s = since(t);
  }

  // place finalize: legalization + cell placement + refinement.
  {
    netlist::Design d = prepared_design;
    place::FlowContext c = prepared_context;
    t = Clock::now();
    place::finalize_placement(d, c, r.mcts_result.anchors, flow);
    out.finalize_s = since(t);
    if (svc::placement_fingerprint(d) != untraced_fingerprint) {
      report.errors.push_back(name + ": standalone finalize did not "
                              "reproduce the untraced placement");
    }
  }

  report.count(name + ".gp.initial_iterations", out.gp_iterations);
  report.count(name + ".rl.optimizer_steps", out.optimizer_steps);
  report.count(name + ".rl.best_wirelength", r.train_result.best_wirelength);
  return out;
}

void add_trace(const PlacementTrace& t, bool with_prepare, Layers& layers) {
  if (with_prepare) {
    layers.gp_initial_s += t.gp_s;
    layers.gp_initial_iterations += t.gp_iterations;
    layers.cluster_s += t.cluster_s;
    layers.coarse_s += t.coarse_s;
    layers.cluster_rss_growth_mb =
        std::max(layers.cluster_rss_growth_mb, t.rss_growth_mb);
    layers.prepare_s += t.prepare_s;
    layers.traced_s += t.prepare_s;
  }
  layers.macro_groups += t.macro_groups;
  layers.cell_groups += t.cell_groups;
  layers.rl_train_s += t.train_s;
  layers.rl_episodes += t.episodes;
  layers.rl_optimizer_steps += t.optimizer_steps;
  layers.mcts_search_s += t.mcts_s;
  layers.mcts_nodes_created += static_cast<double>(t.nodes_created);
  layers.mcts_nn_evaluations += static_cast<double>(t.nn_evaluations);
  layers.mcts_terminal_evaluations +=
      static_cast<double>(t.terminal_evaluations);
  layers.legalize_s += t.legalize_s;
  layers.finalize_s += t.finalize_s;
  layers.traced_s += t.run_s;
  layers.unattributed_s += t.run_s - (t.train_s + t.mcts_s + t.finalize_s);
}

void run_place_workload(const Args& args, Report& report) {
  const PlaceConfig config = config_for(args);
  par::set_num_threads(config.threads);
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kMcts, config.knobs);
  report.info["preset"] = "mcts";
  report.info["threads"] = std::to_string(config.threads);
  report.info["knobs"] = "episodes=" + std::to_string(config.knobs.episodes) +
                         " gamma=" + std::to_string(config.knobs.gamma) +
                         " grid=" + std::to_string(config.knobs.grid);

  // Set-up: generating the design set, repeated at least 21 times and for
  // at least a second (it takes milliseconds, so one measurement is mostly
  // jitter); the median is setup_s.
  std::vector<netlist::Design> designs;
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < 21 || since(setup_start) < 1.0) {
    const Clock::time_point start = Clock::now();
    designs.clear();
    for (const benchgen::BenchSpec& d : config.designs) {
      designs.push_back(benchgen::generate(d));
    }
    setups.push_back(since(start));
  }
  for (std::size_t i = 0; i < designs.size(); ++i) {
    report.info["design." + config.designs[i].name] =
        std::to_string(designs[i].std_cells().size()) + " cells, " +
        std::to_string(designs[i].movable_macros().size()) + " movable macros";
  }

  // Timed passes over the whole set until the run's seconds are used up;
  // every pass must reproduce the first one exactly.
  std::vector<double> pass_seconds;
  std::vector<double> latencies;
  std::vector<Placement> first;
  const Clock::time_point run_start = Clock::now();
  do {
    std::vector<Placement> pass;
    double total = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      pass.push_back(place_cold(designs[i], spec, config.designs[i].name, report));
      total += pass.back().seconds;
      latencies.push_back(pass.back().seconds);
    }
    pass_seconds.push_back(total);
    if (first.empty()) {
      first = std::move(pass);
    } else {
      for (std::size_t i = 0; i < pass.size(); ++i) {
        if (pass[i].fingerprint != first[i].fingerprint) {
          report.errors.push_back(config.designs[i].name +
                                  ": placement differs between passes");
        }
      }
    }
    if (args.trace) break;  // the traced run needs one untraced pass
  } while (since(run_start) < args.seconds);
  report.info["passes"] = std::to_string(pass_seconds.size());

  std::vector<double> hpwls, ratios;
  double overflow_max = 0.0, rudy_max = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Placement& p = first[i];
    const std::string& name = config.designs[i].name;
    hpwls.push_back(p.quality.hpwl);
    ratios.push_back(p.quality.hpwl / p.input_hpwl);
    overflow_max = std::max(overflow_max, p.quality.overflow);
    rudy_max = std::max(rudy_max, p.quality.rudy_peak);
    report.count(name + ".fingerprint", hex64(p.fingerprint));
    report.count(name + ".hpwl", p.quality.hpwl);
    report.count(name + ".overflow", p.quality.overflow);
    report.count(name + ".rudy_peak", p.quality.rudy_peak);
    report.count(name + ".macro_groups", p.result.macro_groups);
    report.count(name + ".cell_groups", p.result.cell_groups);
    report.count(name + ".rl.episodes",
                 static_cast<double>(p.result.train_result.episodes.size()));
    report.count(name + ".mcts.nodes_created",
                 static_cast<double>(p.result.mcts_result.nodes_created));
    report.count(name + ".mcts.nn_evaluations",
                 static_cast<double>(p.result.mcts_result.nn_evaluations));
    report.count(name + ".mcts.terminal_evaluations",
                 static_cast<double>(p.result.mcts_result.terminal_evaluations));
    report.info["share." + name] =
        "train " + std::to_string(p.result.train_seconds / p.seconds) +
        ", mcts " + std::to_string(p.result.mcts_seconds / p.seconds);
  }

  if (!args.trace) {
    const Tail t = tail(latencies);
    report.info["tail_s"] = t.label + " of n=" + std::to_string(t.n);
    const double place_s = median(pass_seconds);
    report.metric("setup_s", median(setups), "s");
    report.metric("place_s", place_s, "s");
    report.metric("jobs_per_s", static_cast<double>(designs.size()) / place_s,
                  "1/s");
    report.metric("p50_s", median(latencies), "s");
    report.metric("tail_s", t.value, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("hpwl_geomean", geomean(hpwls), "dbu");
    report.metric("hpwl_ratio", geomean(ratios), "ratio");
    report.metric("overflow_max", overflow_max, "ratio");
    report.metric("rudy_peak_max", rudy_max, "ratio");
    return;
  }

  Layers layers;
  layers.untraced_s = pass_seconds.front();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    add_trace(trace_placement(designs[i], spec, config.designs[i].name,
                              first[i].fingerprint, report),
              true, layers);
  }
  emit_layers(layers, report);
}

}  // namespace perfbench
