// serve_eco: a warm svc::LocalService fed by closed-loop clients with a
// fixed mix of ECO (regulate) jobs refining a dirtied incumbent placement
// and from-scratch mcts jobs on the same design.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "benchgen/generator.hpp"
#include "common.hpp"
#include "io/bookshelf.hpp"
#include "legal/legalizer.hpp"
#include "nn/serialize.hpp"
#include "par/par.hpp"
#include "rl/agent.hpp"
#include "svc/service.hpp"

namespace perfbench {

using namespace mp;

namespace {

constexpr int kWorkers = 2;
constexpr int kThreadBudget = 2;
constexpr int kClients = 2;
constexpr int kJobs = 36;  // 32 ECO jobs, every ninth job from scratch
constexpr int kScratchEvery = 9;
constexpr int kSetups = 3;

struct EcoConfig {
  benchgen::BenchSpec design;
  std::string weights_path;
  std::string incumbent_prefix;
  std::string dirty_path;
  std::string out_dir;
  std::uint64_t seed = 1;
};

EcoConfig config_for(const Args& args) {
  EcoConfig c;
  // The run seed drives every job seed.  The ECO delta and the agent
  // weights are fixed inputs, like the netlist.
  c.design = bench_design("ibm07", 0.03);
  c.weights_path = args.work_dir + "/agent.mpw";
  c.incumbent_prefix = args.work_dir + "/incumbent";
  c.dirty_path = args.work_dir + "/dirty.pl";
  c.out_dir = args.work_dir;
  c.seed = args.seed;
  return c;
}

svc::JobSpec make_job(const EcoConfig& c, bool eco, std::uint64_t seed) {
  svc::JobSpec j;
  j.use_synthetic = true;
  j.synthetic = c.design;
  j.seed = seed;
  j.weights_path = c.weights_path;
  j.episodes = 12;
  j.gamma = 8;
  // One thread per job, so two running jobs use exactly the 2-thread
  // budget.  Asking for the whole budget gave a job 2 threads when it
  // started on an idle service and 1 otherwise, which depended on timing.
  j.threads = 1;
  if (eco) {
    j.schema = 2;
    j.preset = place::Preset::kRegulate;
    j.initial_placement_path = c.dirty_path;
  } else {
    j.preset = place::Preset::kMcts;
  }
  return j;
}

// The knob mapping every service front end applies to a job.
place::PresetKnobs knobs_of(const svc::JobSpec& j) {
  place::PresetKnobs k;
  k.episodes = j.episodes;
  k.gamma = j.gamma;
  k.grid = j.grid;
  k.channels = j.channels;
  k.blocks = j.blocks;
  k.seed = j.seed;
  k.regulate_radius = j.regulate_radius;
  k.regulate_max_moves = j.regulate_max_moves;
  k.regulate_frozen = j.regulate_frozen;
  return k;
}

struct JobRecord {
  bool eco = false;
  svc::JobSpec spec;
  bool accepted = false;
  double latency = 0.0;  ///< client side: submit to terminal state
  svc::JobSnapshot snap;
};

JobRecord run_job(svc::LocalService& service, svc::JobSpec spec, bool eco) {
  JobRecord rec;
  rec.eco = eco;
  const Clock::time_point start = Clock::now();
  const svc::Scheduler::SubmitResult sub = service.submit(spec);
  rec.accepted = sub.accepted;
  if (sub.accepted) {
    service.wait(sub.id, 0.0);
    rec.latency = since(start);
    if (const auto snap = service.status(sub.id)) rec.snap = *snap;
  }
  rec.spec = std::move(spec);
  return rec;
}

// Why a finished job fails the output checks; empty when it passes.
std::string check_job(const JobRecord& rec) {
  if (!rec.accepted) return "refused";
  if (rec.snap.state != svc::JobState::kDone) {
    return std::string("ended ") + svc::job_state_name(rec.snap.state) + " " +
           rec.snap.error;
  }
  if (!rec.snap.outcome.finalized || rec.snap.outcome.cancelled) {
    return "not finalized";
  }
  if (rec.eco && !(rec.snap.outcome.hpwl <= rec.snap.outcome.input_hpwl)) {
    return "regulate made HPWL worse";
  }
  return "";
}

// The placement a job wrote, rebuilt on the generated design.
netlist::Design load_output(const EcoConfig& c, const std::string& prefix) {
  netlist::Design design = benchgen::generate(c.design);
  io::apply_placement(design, io::read_pl(prefix + ".pl"));
  return design;
}

// One set-up: a fresh service, the agent weights every job starts from,
// a from-scratch incumbent placed by the service itself, the incumbent
// dirtied by moving 30% of its macros and re-legalized (regulate's
// never-worse contract covers legal incumbents), and one ECO job on it.
// Leaves all four cache pools warm.
std::unique_ptr<svc::LocalService> set_up(const EcoConfig& c) {
  {
    rl::AgentConfig agent_config;
    const svc::JobSpec defaults;
    agent_config.grid_dim = defaults.grid;
    agent_config.channels = defaults.channels;
    agent_config.res_blocks = defaults.blocks;
    agent_config.seed = 0xa9e;
    rl::AgentNetwork agent(agent_config);
    nn::save_parameters(agent.parameters(), c.weights_path);
  }
  svc::ServiceOptions options;
  options.workers = kWorkers;
  options.infer = 0;
  options.max_queued = 2 * kJobs;
  auto service = std::make_unique<svc::LocalService>(options);

  svc::JobSpec incumbent = make_job(c, false, derive_seed(c.seed, 0x1c));
  incumbent.out_prefix = c.incumbent_prefix;
  const JobRecord placed = run_job(*service, incumbent, false);
  if (const std::string bad = check_job(placed); !bad.empty()) {
    throw std::runtime_error("set-up incumbent job: " + bad);
  }
  const netlist::Design clean = load_output(c, c.incumbent_prefix);
  benchgen::PerturbSpec dirt;
  dirt.seed = 0xd1;
  dirt.move_fraction = 0.3;
  dirt.move_distance = 0.1 * clean.region().w;
  netlist::Design dirty = benchgen::perturb(clean, dirt);
  legal::legalize_flat(dirty);
  {
    std::ofstream out(c.dirty_path);
    io::write_pl(dirty, out);
    if (!out) throw std::runtime_error("cannot write " + c.dirty_path);
  }
  const JobRecord warm =
      run_job(*service, make_job(c, true, derive_seed(c.seed, 0xec)), true);
  if (const std::string bad = check_job(warm); !bad.empty()) {
    throw std::runtime_error("set-up ECO job: " + bad);
  }
  return service;
}

// The fixed job list of one timed pass, run by closed-loop clients.
std::vector<JobRecord> run_pass(svc::LocalService& service, const EcoConfig& c,
                                int pass) {
  std::vector<JobRecord> records(kJobs);
  std::atomic<int> next{0};
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&] {
      for (int i = next++; i < kJobs; i = next++) {
        const bool eco = i % kScratchEvery != kScratchEvery - 1;
        svc::JobSpec spec =
            make_job(c, eco, derive_seed(c.seed, 1000 + static_cast<unsigned>(i)));
        spec.out_prefix = c.out_dir + "/job" + std::to_string(pass) + "_" +
                          std::to_string(i);
        records[static_cast<std::size_t>(i)] =
            run_job(service, std::move(spec), eco);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return records;
}

double hit_ratio(long long hits, long long misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

}  // namespace

void run_serve_eco(const Args& args, Report& report) {
  const EcoConfig c = config_for(args);
  par::set_num_threads(kThreadBudget);

  std::vector<double> setups;
  std::unique_ptr<svc::LocalService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    const Clock::time_point start = Clock::now();
    service = set_up(c);
    setups.push_back(since(start));
  }
  // Peak RSS of the service serving one job at a time.  The peak of the
  // timed pass depends on whether the training buffers of two concurrent
  // jobs coincide (27 to 39 MB from run to run), so it is reported
  // in the run line but not as the metric.
  const double setup_peak_rss = peak_rss_mb();
  report.info["workers"] = std::to_string(service->workers());
  report.info["thread_budget"] = std::to_string(par::num_threads());
  report.info["clients"] = std::to_string(kClients) + " closed-loop";
  report.info["jobs"] = std::to_string(kJobs) + " per pass, every " +
                        std::to_string(kScratchEvery) + "th from scratch";

  const svc::CacheStats before = service->cache_stats();
  std::vector<double> pass_seconds;
  std::vector<std::vector<JobRecord>> passes;
  const Clock::time_point run_start = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    passes.push_back(run_pass(*service, c, static_cast<int>(passes.size())));
    pass_seconds.push_back(since(start));
    if (args.trace) break;  // the traced run needs one untraced pass
  } while (since(run_start) < args.seconds);
  const svc::CacheStats after = service->cache_stats();
  report.info["passes"] = std::to_string(passes.size());

  std::vector<double> eco_latency, scratch_latency, queue_wait, run_time,
      overhead, hpwls, ratios;
  std::set<int> leases;
  // Quality per job kind: [0] from scratch, [1] ECO.
  std::vector<double> overflows[2], rudy_peaks[2];
  double worst_overflow = 0.0, worst_rudy = 0.0;
  int refused = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t i = 0; i < passes[p].size(); ++i) {
      const JobRecord& rec = passes[p][i];
      const std::string name = "job" + std::to_string(i);
      ++report.attempted;
      if (!rec.accepted) ++refused;
      if (const std::string bad = check_job(rec); !bad.empty()) {
        report.violation(name + ": " + bad);
        continue;
      }
      const svc::JobOutcome& out = rec.snap.outcome;
      if (p > 0) {
        if (out.placement_hash != passes[0][i].snap.outcome.placement_hash) {
          report.errors.push_back(name + ": placement differs between passes");
        }
      } else {
        const netlist::Design placed = load_output(c, rec.spec.out_prefix);
        if (svc::placement_fingerprint(placed) != out.placement_hash) {
          report.violation(name + ": written placement differs from the job's");
          continue;
        }
        if (const std::string bad = check_placement(placed, true, out.hpwl);
            !bad.empty()) {
          report.violation(name + ": " + bad);
          continue;
        }
        const Quality q = measure_quality(placed);
        overflows[rec.eco].push_back(q.overflow);
        rudy_peaks[rec.eco].push_back(q.rudy_peak);
        worst_overflow = std::max(worst_overflow, q.overflow);
        worst_rudy = std::max(worst_rudy, q.rudy_peak);
        hpwls.push_back(out.hpwl);
        if (rec.eco) ratios.push_back(out.hpwl / out.input_hpwl);
        report.count(name + ".fingerprint", hex64(out.placement_hash));
        report.count(name + ".hpwl", out.hpwl);
        report.count(name + ".overflow", q.overflow);
        report.count(name + ".rudy_peak", q.rudy_peak);
        if (rec.eco) report.count(name + ".moved_groups", out.moved_groups);
      }
      (rec.eco ? eco_latency : scratch_latency).push_back(rec.latency);
      queue_wait.push_back(rec.snap.queue_seconds);
      run_time.push_back(rec.snap.run_seconds);
      overhead.push_back(rec.latency - rec.snap.run_seconds);
      leases.insert(rec.snap.granted_threads);
    }
  }
  std::string lease_list;
  for (int l : leases) {
    if (!lease_list.empty()) lease_list += ',';
    lease_list += std::to_string(l);
  }
  report.info["granted_threads"] = lease_list;
  report.info["scratch_p50_s"] = std::to_string(median(scratch_latency));
  report.info["pass_peak_rss_mb"] = std::to_string(peak_rss_mb());
  report.info["worst_job_overflow"] = std::to_string(worst_overflow);
  report.info["worst_job_rudy_peak"] = std::to_string(worst_rudy);

  // Cache traffic of the timed loop; warm artifacts make every lookup a hit.
  const long long passes_n = static_cast<long long>(passes.size());
  const auto per_pass = [&](long long a, long long b) {
    return static_cast<double>(a - b) / static_cast<double>(passes_n);
  };
  report.count("cache.design.hits", per_pass(after.design_hits, before.design_hits));
  report.count("cache.design.misses", per_pass(after.design_misses, before.design_misses));
  report.count("cache.prepared.hits", per_pass(after.prepared_hits, before.prepared_hits));
  report.count("cache.prepared.misses", per_pass(after.prepared_misses, before.prepared_misses));
  report.count("cache.weights.hits", per_pass(after.weights_hits, before.weights_hits));
  report.count("cache.weights.misses", per_pass(after.weights_misses, before.weights_misses));
  report.count("cache.placement.hits", per_pass(after.placement_hits, before.placement_hits));
  report.count("cache.placement.misses", per_pass(after.placement_misses, before.placement_misses));

  if (!args.trace) {
    const Tail t = tail(eco_latency);
    report.info["tail_s"] = t.label + " of n=" + std::to_string(t.n);
    const double makespan = median(pass_seconds);
    report.metric("setup_s", median(setups), "s");
    report.metric("place_s", makespan, "s");
    report.metric("jobs_per_s", kJobs / makespan, "1/s");
    report.metric("p50_s", median(eco_latency), "s");
    report.metric("tail_s", t.value, "s");
    report.metric("peak_rss_mb", setup_peak_rss, "MB");
    report.metric("hpwl_geomean", geomean(hpwls), "dbu");
    report.metric("hpwl_ratio", geomean(ratios), "ratio");
    // The worse job kind, each kind by its median job.  The worst single
    // job is the rare ECO job whose seed moves many groups (none or one of
    // 32, depending on the run seed), so it goes to the run line instead.
    report.metric("overflow_max",
                  std::max(median(overflows[0]), median(overflows[1])), "ratio");
    report.metric("rudy_peak_max",
                  std::max(median(rudy_peaks[0]), median(rudy_peaks[1])), "ratio");
    return;
  }

  Layers layers;
  layers.svc_queue_wait_p50_s = median(queue_wait);
  layers.svc_run_p50_s = median(run_time);
  layers.svc_overhead_p50_s = median(overhead);
  layers.svc_hit_ratio_design = hit_ratio(after.design_hits - before.design_hits,
                                          after.design_misses - before.design_misses);
  layers.svc_hit_ratio_prepared = hit_ratio(after.prepared_hits - before.prepared_hits,
                                            after.prepared_misses - before.prepared_misses);
  layers.svc_hit_ratio_weights = hit_ratio(after.weights_hits - before.weights_hits,
                                           after.weights_misses - before.weights_misses);
  layers.svc_hit_ratio_placement = hit_ratio(after.placement_hits - before.placement_hits,
                                             after.placement_misses - before.placement_misses);
  layers.svc_refused = refused;
  service.reset();

  const std::vector<nn::Tensor> weights = nn::read_parameters_file(c.weights_path);
  const std::vector<JobRecord>& pass = passes.front();

  // A from-scratch job, decomposed outside the service.  Its preprocessing
  // is a cache hit in the service, so only the run-phase layers count.
  const JobRecord& scratch = pass[kScratchEvery - 1];
  place::PlacerSpec scratch_spec =
      place::spec_from_preset(scratch.spec.preset, knobs_of(scratch.spec));
  scratch_spec.mcts_rl.initial_parameters = weights;
  add_trace(trace_placement(benchgen::generate(c.design), scratch_spec,
                            "scratch", scratch.snap.outcome.placement_hash,
                            report),
            false, layers);
  layers.untraced_s += scratch.snap.run_seconds;

  // An ECO job, decomposed the same way.  The touched-region legalization
  // inside place::run has no public entry point of its own, so it lands in
  // unattributed_s.
  const JobRecord& eco = pass.front();
  place::PlacerSpec eco_spec =
      place::spec_from_preset(eco.spec.preset, knobs_of(eco.spec));
  eco_spec.regulate.initial_parameters = weights;
  netlist::Design design = benchgen::generate(c.design);
  io::apply_placement(design, io::read_pl(c.dirty_path));
  Clock::time_point t = Clock::now();
  place::PreparedFlow prepared{
      place::prepare_regulate_flow(design, eco_spec.regulate.flow)};
  layers.regulate_prepare_s = since(t);
  t = Clock::now();
  const place::PlaceResult r = place::run(design, eco_spec, &prepared);
  const double run_s = since(t);
  if (svc::placement_fingerprint(design) != eco.snap.outcome.placement_hash) {
    report.errors.push_back("eco: traced placement differs from the served job's");
  }
  layers.regulate_train_s = r.train_seconds;
  layers.regulate_search_s = r.mcts_seconds;
  layers.regulate_moved_groups = r.moved_groups;
  layers.mcts_search_s += r.mcts_seconds;
  layers.mcts_nodes_created += static_cast<double>(r.mcts_result.nodes_created);
  layers.mcts_nn_evaluations += static_cast<double>(r.mcts_result.nn_evaluations);
  layers.mcts_terminal_evaluations +=
      static_cast<double>(r.mcts_result.terminal_evaluations);
  layers.traced_s += run_s;
  layers.untraced_s += eco.snap.run_seconds;
  layers.unattributed_s += run_s - (r.train_seconds + r.mcts_seconds);
  report.count("eco.traced.moved_groups", r.moved_groups);
  report.count("eco.traced.mcts.nodes_created",
               static_cast<double>(r.mcts_result.nodes_created));
  emit_layers(layers, report);
}

}  // namespace perfbench
